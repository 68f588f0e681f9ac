"""Gate-design environment over the two-dot simulator.

An episode is a piecewise-constant control pulse built one dt at a time.
Each step the agent moves the three controls (two on-site energies and
the tunnel coupling), the accumulated unitary is advanced by one Trotter
step, and the compensated gate fidelity against CZ is computed.  The
episode terminates on fidelity above the success threshold or truncates
at the step cap.

Rewards: -1 per step, an extra -1 when a control hits its bound, and a
fidelity-scaled bonus at the terminal step (larger when the gate also
clears the high-fidelity tier).  The environment sums each episode's
return, and ``improves`` is the one rule by which a learner keeps its best
episode.

``VecGateEnv`` steps a batch of episodes in lockstep and holds the one
implementation of the transition: both action interfaces with the
discrete step size, propagation, gate pipeline, reward, termination and
observation, all batch-first; it is built reset and stepped only through
its two action maps.  There is one env API: ``GateEnv`` is a
``VecGateEnv`` of one row, read as row 0 of the same arrays, and
``replay_schedule`` runs the same gate pipeline over all steps of a
schedule at once, read as one (T, 3) control array (a ``PulseSchedule``
converts by ``np.asarray``).

Each path propagates only the sector slots its output reads: the gate's
slots 0 and 3 (``sim.GATE_SLOTS``) for computational4 and for replay, all
four (``sim.ALL_SLOTS``) for full16, whose observation reads the dense
16x16 unitary.  H conserves (N, S_z), so only the entries within a sector
can be nonzero: the observation holds just those (re, im) pairs and the
fidelity, the features ``EnvConfig.live_features`` lists, read from the
gate or the four-slot stack by one fixed gather.  Every slot gets the same
bits either way, so replay matches an episode of either observation mode
bit for bit.  Controls are (..., 3) arrays in
``sim.CONTROL_NAMES`` order throughout, handed to ``sim.HamiltonianParams``
as they are.
"""

from __future__ import annotations

import csv
import functools
import itertools
import numbers
import typing
from dataclasses import dataclass, field

import numpy as np

from . import sim

N_ACTIONS = 27  # 3 choices (hold / up / down) per control, 3 controls

# The most rows ``_step_propagators`` leaves in any cache it fills, dropping
# the oldest first: 4096 full16 rows of (4, 4, 4) complex slots are 4 MB.
PROPAGATOR_CACHE_ROWS = 4096

# Row k: the (eps0, eps1, tunnel) moves of action k in units of the step
# size.  Base-3 digits, eps0 lowest: digit 0 holds, 1 adds, 2 subtracts.
_MOVES = np.array([[(0.0, 1.0, -1.0)[k // 3**d % 3] for d in range(3)] for k in range(N_ACTIONS)])

SCHEDULE_CSV_HEADER = ["step", "eps0_ghz", "eps1_ghz", "tunnel_ghz"]
_CSV_TYPES = (int, float, float, float)


@functools.cache
def field_types(cls) -> dict:
    """The resolved type of each field of a config dataclass."""
    return typing.get_type_hints(cls)


# What each scalar field type admits, and how a message names one and many.
_KINDS = {
    int: (lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool),
          "an integer", "integers"),
    float: (lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool),
            "a number", "numbers"),
    bool: (lambda v: isinstance(v, bool), "true or false", "booleans"),
}


def check_type(kind, value, where: str) -> None:
    """Reject a value the field's type does not admit; a bool is not a
    number, an integer field takes no float, and a ``tuple[...]`` field
    takes a list of its length whose entries have its entry types."""
    if typing.get_origin(kind) is tuple:
        entries = typing.get_args(kind)
        if not (
            isinstance(value, (list, tuple))
            and len(value) == len(entries)
            and all(_KINDS[k][0](v) for k, v in zip(entries, value))
        ):
            raise ValueError(
                f"{where}={value!r} must be a list of {len(entries)} {_KINDS[entries[0]][2]}"
            )
    elif kind in _KINDS and not _KINDS[kind][0](value):
        raise ValueError(f"{where}={value!r} must be {_KINDS[kind][1]}")


def check_fields(cfg) -> None:
    """``check_type`` on every field of a config dataclass, naming the field;
    a list or tuple of the wrong length is named with the length wanted."""
    for name, kind in field_types(type(cfg)).items():
        value, entries = getattr(cfg, name), typing.get_args(kind)
        if entries and isinstance(value, (list, tuple)) and len(value) != len(entries):
            raise ValueError(f"{name}={value!r} must have {len(entries)} entries")
        check_type(kind, value, name)


@dataclass(frozen=True)
class EnvConfig:
    """Physics constants, control bounds, and episode/reward settings.

    The discrete step size shrinks from ``step_sizes[0]`` as F passes each of
    ``step_thresholds``, but not while ``f_terminal`` >= the first, as at the
    defaults (both 0.99): that step ends the episode, and the reset that must
    follow restores ``step_sizes[0]``, so no live row moves by less."""

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
        check_fields(self)
        for name, bounds, physical, starts in (
            ("eps_bounds", self.eps_bounds, sim.EPS_BOUNDS,
             {f"eps_init[{i}]": e for i, e in enumerate(self.eps_init)}),
            ("tun_bounds", self.tun_bounds, sim.TUN_BOUNDS, {"tun_init": self.tun_init}),
        ):
            if bounds[0] >= bounds[1]:
                raise ValueError(f"{name} not ordered: {bounds}")
            if not physical[0] <= bounds[0] <= bounds[1] <= physical[1]:
                raise ValueError(f"{name}={bounds} outside the physical range {physical} GHz")
            for start, value in starts.items():
                if not bounds[0] <= value <= bounds[1]:
                    raise ValueError(f"{start}={value} outside {bounds}")
        # Checks u and ez here, so that a step can fail only on its controls.
        sim.HamiltonianParams((*self.eps_init, self.tun_init), self.u, self.ez).validate()
        if not 0 < self.f_terminal <= self.f_bonus < 1:
            raise ValueError(
                f"need 0 < f_terminal <= f_bonus < 1, got "
                f"{self.f_terminal}, {self.f_bonus}"
            )
        if self.obs_mode not in ("computational4", "full16"):
            raise ValueError(f"unknown obs_mode {self.obs_mode!r}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps={self.max_steps} must be >= 1")
        if not 0 < self.dt < np.inf:
            raise ValueError(f"dt={self.dt} must be finite and > 0")
        for i, size in enumerate(self.step_sizes):
            if not 0 < size < np.inf:
                raise ValueError(f"step_sizes[{i}]={size} must be finite and > 0")
        if not 0 < self.step_thresholds[0] <= self.step_thresholds[1] < 1:
            raise ValueError(
                f"step_thresholds={self.step_thresholds} must satisfy 0 < t0 <= t1 < 1"
            )
        for name in ("r_step", "r_boundary", "r_success", "r_bonus"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name}={getattr(self, name)} must be finite")

    @property
    def obs_dim(self) -> int:
        return len(self.live_features)

    @property
    def live_features(self) -> np.ndarray:
        """Where each observed feature sits in the dense layout, ascending.

        The dense layout is the observed matrix's entries as (re, im) pairs,
        then the fidelity: 33 floats for the computational4 gate, 513 for the
        full16 unitary.  H conserves (N, S_z), so every entry between two
        sectors is an exact zero on every step, and the observation holds
        the other features: the (re, im) pairs of the same-sector entries,
        plus the fidelity, 13 for computational4 and 73 for full16.
        """
        if self.obs_mode == "computational4":
            entries, size = sim.COMP_ENTRIES, sim.DIM_COMP**2
        else:
            entries, size = sim.DENSE_ENTRIES, sim.DENSE_POSITIONS.size
        return np.append(_pairs(entries), 2 * size)


def _pairs(entries: np.ndarray) -> np.ndarray:
    """The float indices (2k, 2k + 1) of each complex entry k's (re, im)."""
    return np.stack([2 * entries, 2 * entries + 1], axis=-1).ravel()


@dataclass
class StepResult:
    """One step's outcome: every field and info value is an array over the
    rows.  ``info`` holds each row's fidelity, gate_duration (ns),
    boundary_hit, compensated flag and running return; the controls the
    step held are the env's ``controls``."""

    observation: np.ndarray
    reward: np.ndarray
    terminated: np.ndarray
    truncated: np.ndarray
    info: dict


@dataclass
class PulseSchedule:
    """Piecewise-constant controls actually applied, one row per dt step."""

    rows: list[tuple[int, float, float, float]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rows)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The (T, 3) controls as a fresh array; a row without the four fields
        (step, eps0, eps1, tunnel) raises ValueError naming its index."""
        rows = self.rows
        if set(map(len, rows)) - {4}:
            t = next(t for t, row in enumerate(rows) if len(row) != 4)
            raise ValueError(f"schedule row {t} has {len(rows[t])} fields, expected 4: {rows[t]!r}")
        values = np.fromiter(itertools.chain.from_iterable(rows), float, count=4 * len(rows))
        return values.reshape(-1, 4)[:, 1:].astype(dtype, copy=False)

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
        """Read a ``to_csv`` file, whose steps must read 0, 1, ..., T-1."""
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
                where = f"line {reader.line_num}"
                if len(line) != 4:
                    raise ValueError(f"{where}: bad schedule row: {line!r}")
                row = []
                for name, parse, text in zip(SCHEDULE_CSV_HEADER, _CSV_TYPES, line):
                    try:
                        row.append(parse(text))
                    except ValueError:
                        raise ValueError(
                            f"{where}, column {name}: cannot parse {text!r} as {parse.__name__}"
                        ) from None
                if row[0] != len(rows):
                    raise ValueError(
                        f"{where}, column step: expected {len(rows)}, got {row[0]}"
                    )
                rows.append(tuple(row))
        return cls(rows=rows)


def compute_reward(fidelity, boundary_hit, terminated, config: EnvConfig):
    """Step penalty, boundary penalty, and fidelity-scaled terminal bonus.

    Elementwise over arrays of steps; scalar arguments give a scalar.
    """
    scale = np.where(fidelity > config.f_bonus, config.r_bonus, config.r_success)
    # A False flag times a finite term adds an exact zero.
    return config.r_step + config.r_boundary * boundary_hit + terminated * scale * fidelity


def improves(fidelity, duration, best_fidelity, best_duration) -> bool:
    """Whether an episode beats the best so far: a higher fidelity wins, and
    at equal fidelity the shorter gate wins; a tie keeps the old episode."""
    return fidelity > best_fidelity or (fidelity == best_fidelity and duration < best_duration)


def _gate(u_acc: np.ndarray):
    """Gate pipeline of (B, k, 4, 4) accumulated slot stacks.

    Returns the projected, compensated (B, 4, 4) gates, the (B,) compensation
    flags and the fidelity report of (B,) arrays.  Each row's bits do not
    depend on the other rows.
    """
    u_gate, compensated = sim.compensate(sim.project_to_computational(u_acc))
    return u_gate, compensated, sim.gate_fidelity(u_gate)


def _build(controls, config: EnvConfig, slots) -> np.ndarray:
    """The (N, k, 4, 4) step propagators of (N, 3) controls, built anew."""
    h = sim.build_hamiltonian(sim.HamiltonianParams(controls, config.u, config.ez, slots))
    return sim.step_unitaries(h, config.dt)


def _step_propagators(controls, config: EnvConfig, slots, cache: dict) -> np.ndarray:
    """The (N, k, 4, 4) step propagators of (N, 3) controls, each row's
    read-only one looked up in ``cache`` by the row's bytes (-0.0 and +0.0
    differ).  The distinct rows missing there are built by one ``_build``,
    in first-occurrence order, and kept; a build that raises keeps none.
    Then the oldest keys past ``PROPAGATOR_CACHE_ROWS`` go (a hit moves none)."""
    raw, width = controls.tobytes(), controls.itemsize * controls.shape[-1]
    keys = [raw[i:i + width] for i in range(0, len(raw), width)]
    missing = list(dict.fromkeys(key for key in keys if key not in cache))
    if missing:
        rows = np.frombuffer(b"".join(missing), controls.dtype).reshape(len(missing), -1)
        u_step = _build(rows, config, slots)
        u_step.flags.writeable = False
        cache.update(zip(missing, u_step))
    u_step = np.asarray([cache[key] for key in keys])
    while len(cache) > PROPAGATOR_CACHE_ROWS:
        del cache[next(iter(cache))]
    return u_step


class VecGateEnv:
    """n_envs episodes advanced in lockstep as the rows of one batch.

    Each row holds its own episode state, and ``_initial`` holds the fresh
    episode as one row by attribute name, the one list of that state:
    controls, accumulated unitary, fidelity, step counter, discrete step size
    ``delta``, running return ``returns`` (which ``info["return"]``
    reports), ...  An env is built reset, and a finished row must be reset,
    with ``reset(rows)``, before its next step.  Controls reach a step only
    through the two action maps, which end in ``_clip`` to the box that
    ``EnvConfig.validate`` holds inside the physical bounds.  The unitaries
    carry only the ``slots`` that the observation and the gate read.  A step
    runs at most one Hamiltonian build and one propagator call, then one
    stacked accumulate and one gate pipeline over all rows, and a row's
    numbers do not depend on the others, so every row equals a ``GateEnv``
    episode driven by the same actions, bit for bit.

    Each action map hands ``_advance`` its rows' step propagators:
    ``step_continuous`` builds every row by ``_build``, and ``step_discrete``,
    whose moves walk back over a lattice of controls, looks its rows up
    through ``_step_propagators`` in a cache keyed by a row's control bytes,
    building each distinct row this env has not built yet once.  The cache
    outlives ``reset``, is not part of ``_initial``, is never shared between
    envs and holds at most ``PROPAGATOR_CACHE_ROWS`` rows, dropping the
    oldest first.  A propagator's bits do not depend on the stack it was
    built in, so a reused row equals a rebuilt one bit for bit.
    """

    def __init__(self, config: EnvConfig, n_envs: int):
        config.validate()
        if n_envs < 1:
            raise ValueError(f"n_envs={n_envs} must be >= 1")
        self.config = config
        self.n_envs = n_envs
        self.slots = sim.ALL_SLOTS if config.obs_mode == "full16" else sim.GATE_SLOTS
        self._lo, self._hi = (
            np.array(b) for b in zip(config.eps_bounds, config.eps_bounds, config.tun_bounds)
        )
        self._rows = np.arange(n_envs)
        self._propagators = {}  # control bytes -> read-only (k, 4, 4)
        self._history = np.empty((n_envs, config.max_steps, len(sim.CONTROL_NAMES)))
        # Where each observed feature sits among the floats of its source: the
        # gate, laid out as the dense 4x4 block, or the stack of all slots,
        # which holds dense entry k at sim.DENSE_POSITIONS[k].  The fidelity's
        # column reads float 0 and is overwritten.
        features = config.live_features[:-1]
        if config.obs_mode == "full16":
            features = 2 * sim.DENSE_POSITIONS.ravel()[features // 2] + features % 2
        self._source = np.append(features, 0)
        # The fresh episode state: one row, the same for every row of every env.
        u_acc = self.slots.identity[None]
        u_gate, _, report = _gate(u_acc)
        self._initial = {
            "controls": np.array([[*config.eps_init, config.tun_init]]),
            "u_acc": u_acc,
            "fidelity": report.fidelity,
            "observation": self._observations(u_gate, u_acc, report.fidelity),
            "steps": np.zeros(1, dtype=int),
            "delta": np.array([config.step_sizes[0]]),
            "returns": np.zeros(1),
            "_done": np.zeros(1, dtype=bool),
        }
        self.reset()

    def reset(self, rows: np.ndarray | None = None) -> np.ndarray:
        """Start new episodes in ``rows``, a boolean mask (default: all rows).

        Each fresh row of ``_initial`` is repeated over all rows, or written
        into the chosen rows of a copy of the current value, so no array
        handed out, earlier or now, is ever written.  Returns the observations.
        A mask that is not a boolean array of shape (n_envs,) raises
        ValueError, naming its dtype and shape.
        """
        if rows is not None:
            rows = np.asarray(rows)
            if rows.dtype != bool or rows.shape != (self.n_envs,):
                raise ValueError(
                    f"rows must be a boolean mask of shape ({self.n_envs},), "
                    f"got dtype {rows.dtype} and shape {rows.shape}"
                )
        for name, fresh in self._initial.items():
            if rows is None:
                value = np.repeat(fresh, self.n_envs, axis=0)
            else:
                value = getattr(self, name).copy()
                value[rows] = fresh
            setattr(self, name, value)
        return self.observation

    def _observations(self, u_gate, u_acc, fidelity) -> np.ndarray:
        """The live features of each row's gate (or, for full16, dense
        accumulated unitary), then the row's fidelity: one fixed gather from
        the floats of the (re, im) pairs."""
        source = u_gate if self.config.obs_mode == "computational4" else u_acc
        obs = source.reshape(len(source), -1).view(float).take(self._source, axis=1)
        obs[:, -1] = fidelity
        return obs

    def _advance(self, controls, u_step, boundary_hit) -> StepResult:
        """Hold an action map's (n_envs, 3) controls for one dt, advancing
        each row by its step propagator of ``u_step``."""
        if self._done.any():
            raise RuntimeError("step called on a finished episode; reset first")
        cfg = self.config
        self.u_acc = sim.accumulate(u_step, self.u_acc)
        self._history[self._rows, self.steps] = controls
        self.controls = controls
        self.steps = self.steps + 1
        u_gate, compensated, report = _gate(self.u_acc)
        fid = self.fidelity = report.fidelity
        self.observation = self._observations(u_gate, self.u_acc, fid)
        terminated = fid > cfg.f_terminal
        at_cap = self.steps >= cfg.max_steps
        truncated = at_cap & ~terminated
        self._done = terminated | at_cap
        reward = compute_reward(fid, boundary_hit, terminated, cfg)
        self.returns = self.returns + reward
        info = {
            "fidelity": fid,
            "gate_duration": self.steps * cfg.dt,
            "boundary_hit": boundary_hit,
            "compensated": compensated,
            "return": self.returns,
        }
        return StepResult(self.observation, reward, terminated, truncated, info)

    def step_discrete(self, actions) -> StepResult:
        """One action index in [0, 26] per row: move each control of the row
        by -delta, 0 or +delta (the action's row of ``_MOVES``), clipped to
        its bounds; a clip counts as a boundary hit.  A row's delta shrinks
        to the next step size once its fidelity passes each step threshold,
        and is reset to the first with the row (inert at the defaults: see
        ``EnvConfig``).  Rows reuse the step propagators that earlier
        discrete steps built, bit for bit (see ``VecGateEnv``)."""
        actions = np.asarray(actions)
        if actions.shape != (self.n_envs,):
            raise ValueError(
                f"discrete actions must have shape ({self.n_envs},), got {actions.shape}"
            )
        if actions.dtype.kind not in "iu":
            raise ValueError(f"discrete actions must be integers, got dtype {actions.dtype}")
        for row, a in enumerate(actions.tolist()):
            if not 0 <= a < N_ACTIONS:
                raise ValueError(f"action index {a} of row {row} outside [0, {N_ACTIONS - 1}]")
        raw = self.controls + _MOVES.take(actions, axis=0) * self.delta[:, None]
        controls = self._clip(raw)
        u_step = _step_propagators(controls, self.config, self.slots, self._propagators)
        res = self._advance(controls, u_step, (controls != raw).any(axis=-1))
        (t0, t1), (_, s1, s2) = self.config.step_thresholds, self.config.step_sizes
        fid = res.info["fidelity"]
        if (fid > t0).any():  # t0 <= t1, so no row shrinks otherwise
            shrunk = np.where(fid > t1, s2, np.where(fid > t0, s1, np.inf))
            self.delta = np.minimum(self.delta, shrunk)
        return res

    def _clip(self, controls: np.ndarray) -> np.ndarray:
        """(n_envs, 3) controls clipped to the control box, as Python's
        min(max(c, lo), hi): a bound replaces a control only where it is
        strictly beyond it, so a tie of signed zeros keeps the control's sign."""
        controls = np.where(self._lo > controls, self._lo, controls)
        return np.where(self._hi < controls, self._hi, controls)

    def step_continuous(self, actions) -> StepResult:
        """One (n_envs, 3) continuous action per row: set each control to the
        point of its bounds given by an action component in [-1, 1];
        components outside are clipped, which counts as a boundary hit.  The
        map can round one ulp past a bound, so the controls then go through
        ``_clip`` too; that clip is no boundary hit."""
        actions = np.asarray(actions)
        if actions.shape != (self.n_envs, 3):
            raise ValueError(
                f"continuous actions must have shape ({self.n_envs}, 3), got {actions.shape}"
            )
        if actions.dtype.kind not in "iuf":
            raise ValueError(f"continuous actions must be numbers, got dtype {actions.dtype}")
        actions = actions.astype(float, copy=False)
        if not np.isfinite(actions).all():
            row = int(np.argwhere(~np.isfinite(actions))[0, 0])
            raise ValueError(f"continuous action {actions[row]} of row {row} is not finite")
        clipped = np.clip(actions, -1.0, 1.0)
        boundary_hit = (clipped != actions).any(axis=-1)
        controls = self._clip(self._lo + (clipped + 1.0) * 0.5 * (self._hi - self._lo))
        return self._advance(controls, _build(controls, self.config, self.slots), boundary_hit)

    def export_schedule(self, row: int) -> PulseSchedule:
        """The controls applied so far in the episode of one row."""
        n = int(self.steps[row])
        if n == 0:
            raise RuntimeError("no steps taken yet")
        return PulseSchedule(
            rows=[(t, *c) for t, c in enumerate(self._history[row, :n].tolist())]
        )


class GateEnv(VecGateEnv):
    """One episode: a ``VecGateEnv`` of one row.  Its steps take one action
    per row and its results are arrays over the row, as for any batch.
    ``benchmarks/tracing.py`` wraps the inherited step methods and reset on
    this class."""

    def __init__(self, config: EnvConfig = EnvConfig()):
        super().__init__(config, 1)


def replay_schedule(
    schedule, config: EnvConfig = EnvConfig()
) -> tuple[sim.FidelityReport, list[float]]:
    """Re-evolve stored controls through the simulator alone.

    ``schedule`` is anything ``np.asarray`` turns into (T, 3) controls, such
    as a ``PulseSchedule``; controls of any other shape, or of no steps,
    raise ValueError naming it.  Every row is validated first: out of bounds
    or non-finite controls raise ValueError naming the step.  Only the gate is
    read, so only its slots (``sim.GATE_SLOTS``) are propagated, whatever the
    observation mode.  A piecewise-constant pulse repeats its step
    propagator, so consecutive rows with bit-identical controls form a run,
    and the run starts go through ``_step_propagators`` with a fresh cache:
    one batched build covers each distinct run start once, so a constant
    sweep costs one build and one ``eigh``.  The steps are accumulated in
    order by ``sim.accumulate``, the environment's product, written through
    ``out=`` into one preallocated stack on views made once, and the gate
    pipeline runs once over all accumulated unitaries.  Every slot of these
    calls equals the environment's bit for bit, so the returned fidelities
    match the producing episode bitwise.  Returns the final report and the
    per-step fidelity trace.
    """
    controls = np.asarray(schedule)
    if controls.ndim != 2:
        raise ValueError(f"schedule controls must have shape (T, 3), got {controls.shape}")
    if not len(controls):
        raise ValueError("schedule has no steps to replay")
    controls = sim.HamiltonianParams(controls, config.u, config.ez).validate()
    # Compare bits, not values, so that -0.0 and 0.0 start different runs.
    bits = controls.view(np.int64)
    starts = np.ones(len(controls), dtype=bool)
    starts[1:] = (bits[1:] != bits[:-1]).any(axis=1)
    slots = sim.GATE_SLOTS
    u_runs = _step_propagators(controls[starts], config, slots, {})
    # Row 0 is the identity before the first step.
    u_acc = np.empty((len(controls) + 1, *slots.shape), dtype=complex)
    u_acc[0] = slots.identity
    accumulate, runs, acc = sim.accumulate, list(u_runs), list(u_acc)
    for r, prev, nxt in zip((np.cumsum(starts) - 1).tolist(), acc, acc[1:]):
        accumulate(runs[r], prev, out=nxt)
    _, _, report = _gate(u_acc)
    return report.row(-1), report.fidelity[1:].tolist()
