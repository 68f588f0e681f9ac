"""Exact dynamics of a two-quantum-dot spin-qubit system.

The two dots are modeled as a four-mode fermionic Fock space (dot0-up,
dot0-down, dot1-up, dot1-down), giving a 16-dimensional Hilbert space.
The Hamiltonian collects on-site energies, Zeeman splittings, Hubbard
repulsion, and tunnel coupling.  Every term is read off the occupation
bits: a hop moves one electron of one spin between the dots, and its
Jordan-Wigner sign is the occupation of the mode between the two.

Basis indices are big-endian occupation bitstrings over the mode order
above, so the (1,1)-charge computational states sit at indices
{5, 6, 9, 10} = {down-down, down-up, up-down, up-up}.  A pulse drives the
16x16 unitary; projecting onto those four indices and removing the
single-qubit virtual-Z phases yields the effective two-qubit gate, scored
against CZ with a fidelity that penalizes both leakage and distance from
the target.

H conserves the particle number N and the spin S_z, so it never couples
states of different (N, S_z).  Those sectors are read off the occupation
table and packed, by one fixed basis permutation, into four 4x4 diagonal
slots ({3,6,9,12}, {1,4}+{2,8}, {7,13}+{11,14}, {0,5,10,15}).  The step
path keeps every operator in that slot form: real H blocks, slot unitaries
from one stacked ``eigh``, slot-by-slot accumulation, and a gate gathered
straight from the slots; entries between two sectors sharing a slot stay
exact zeros.

H never couples two slots, so a stack may carry only the slots an output
reads, as a ``SlotSet``: (..., k, 4, 4) instead of (..., 4, 4, 4).  The
gate lives in slots 0 and 3 (``GATE_SLOTS``), which is all that the
fidelity, replay and the computational4 observation need; the full16
observation reads all four (``ALL_SLOTS``, the default).  The same code
runs on either stack, and each slot gets the same bits in both.  Only the
build is told which slots to carry: a stack's slot count names its set.
``DENSE_POSITIONS`` maps each entry of the dense 16x16 matrix to its place
in a four-slot stack; the full16 observation reads through it, and the
tests build their dense view from it to check against ``evolve_step``,
the one matrix exponential, which they run on the dense 16x16 H and the
step path on slot stacks.  Every function takes a leading batch axis and
gives each row the bits it would get alone.

A step's controls are a row of three floats in ``CONTROL_NAMES`` order,
held everywhere, ``HamiltonianParams`` included, as (..., 3) arrays.

Energies are linear frequencies in GHz, durations in ns, so one
evolution step is exp(-i 2*pi H dt).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

N_MODES = 4
DIM_FULL = 16
DIM_COMP = 4

# Full-space basis indices of {down-down, down-up, up-down, up-up}.
COMPUTATIONAL_INDICES = (5, 6, 9, 10)

# Target gate: controlled-Z in the computational basis.
CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
_CZ_CONJ = CZ.ravel().conj()

EPS_BOUNDS = (-750.0, 750.0)
TUN_BOUNDS = (0.0, 5.0)

PHASE_TOL = 1e-8


# _OCC[s, m] = occupation of mode m in basis state s.
_OCC = (np.arange(DIM_FULL)[:, None] >> np.arange(N_MODES - 1, -1, -1)) & 1


def _hop(a, b) -> np.ndarray:
    """<a| sum over spin s of c0s^dag c1s + h.c. |b> for arrays of basis
    states a, b: nonzero where one electron of spin s moves between the dots
    (modes s and s + 2), with the Jordan-Wigner sign (-1)^n, n the
    occupation of the mode between them (s + 1)."""
    hop = 0.0
    for spin in range(2):
        dot0, dot1 = spin, spin + 2
        pair = (1 << (N_MODES - 1 - dot0)) | (1 << (N_MODES - 1 - dot1))
        moved = ((a ^ b) == pair) & (_OCC[b, dot0] != _OCC[b, dot1])
        hop = hop + np.where(moved, 1.0 - 2.0 * _OCC[b, spin + 1], 0.0)
    return hop


# -- (N, S_z) sectors packed into 4x4 slots ---------------------------------

SLOT_DIM = 4
CONTROL_NAMES = ("eps0", "eps1", "tunnel")


def _sectors() -> tuple[tuple[int, ...], ...]:
    """Basis states grouped by (N, 2*S_z), in ascending label order."""
    n_up = _OCC[:, 0] + _OCC[:, 2]
    n_down = _OCC[:, 1] + _OCC[:, 3]
    labels = [(int(n), int(m)) for n, m in zip(n_up + n_down, n_up - n_down)]
    return tuple(
        tuple(s for s in range(DIM_FULL) if labels[s] == key)
        for key in sorted(set(labels))
    )


def _pack_slots(sectors) -> np.ndarray:
    """First-fit decreasing: each sector, largest first, goes into the first
    slot with room.  Row k of the result lists the states of slot k."""
    slots: list[list[int]] = []
    for sector in sorted(sectors, key=len, reverse=True):
        for slot in slots:
            if len(slot) + len(sector) <= SLOT_DIM:
                slot.extend(sector)
                break
        else:
            slots.append(list(sector))
    return np.array(slots)


SECTORS = _sectors()
SLOTS = _pack_slots(SECTORS)  # (N_SLOTS, SLOT_DIM) full-space indices
N_SLOTS = len(SLOTS)


def _slot_terms() -> np.ndarray:
    """Slot matrices of the seven Hamiltonian terms, flattened to (7, 64).

    Row order matches the coefficients (eps0, eps1, tunnel, ez0, ez1, u0,
    u1): dot occupation, hopping, half the spin polarization and double
    occupancy of each dot.
    """
    up, down = _OCC[:, 0::2], _OCC[:, 1::2]  # (state, dot)
    diagonals = [up[:, 0] + down[:, 0], up[:, 1] + down[:, 1]]
    diagonals += [0.5 * (up[:, d] - down[:, d]) for d in range(2)]
    diagonals += [up[:, d] * down[:, d] for d in range(2)]
    eye = np.eye(SLOT_DIM)
    terms = [f[SLOTS][:, :, None] * eye for f in diagonals]
    terms.insert(2, -_hop(SLOTS[:, :, None], SLOTS[:, None, :]))
    return np.stack(terms).reshape(len(terms), -1)


_TERMS = _slot_terms()

_SECTOR_OF = np.array(
    [next(k for k, sector in enumerate(SECTORS) if s in sector) for s in range(DIM_FULL)]
)
# Slot entries between two sectors that share a slot: held at exact zero.
_CROSS_SECTOR = _SECTOR_OF[SLOTS][:, :, None] != _SECTOR_OF[SLOTS][:, None, :]


def _flat_positions(index) -> np.ndarray:
    """(16, 16) table of where entry (a, b) sits in a stack of the slots
    ``index``: its flattened position there, or -1 where a and b lie in
    different sectors (an exact zero) or outside those slots."""
    states = SLOTS[index]
    pos = np.full((DIM_FULL, DIM_FULL), -1)
    pos[states[:, :, None], states[:, None, :]] = np.where(
        _CROSS_SECTOR[index], -1, np.arange(states.size * SLOT_DIM).reshape(states.shape + (-1,))
    )
    return pos


_COMP = np.ix_(COMPUTATIONAL_INDICES, COMPUTATIONAL_INDICES)
# Where each entry of a dense 16x16 matrix sits in a flattened stack of all
# four slots, or -1 for an entry between two sectors.
DENSE_POSITIONS = _flat_positions(np.arange(N_SLOTS))
DENSE_POSITIONS.flags.writeable = False
# Flattened positions of the entries that can be nonzero, the same-sector
# ones, in a dense 16x16 matrix and in the computational 4x4 block.
DENSE_ENTRIES = np.flatnonzero(DENSE_POSITIONS >= 0)
COMP_ENTRIES = np.flatnonzero(DENSE_POSITIONS[_COMP] >= 0)
DENSE_ENTRIES.flags.writeable = False
COMP_ENTRIES.flags.writeable = False
_COMP_ZERO = DENSE_POSITIONS[_COMP].ravel() < 0


class SlotSet:
    """The slots holding some full-space states, in ascending slot order,
    and the tables that build and read a (..., k, 4, 4) stack of just those
    k slots.

    H never couples two slots, so each slot of such a stack evolves exactly
    as that slot of the full four-slot stack, bit for bit.  The states must
    include the computational ones: every output reads the gate.
    """

    def __init__(self, states):
        self.index = np.flatnonzero(np.isin(SLOTS, list(states)).any(axis=1))
        k = len(self.index)
        self.shape = (k, SLOT_DIM, SLOT_DIM)
        self.size = k * SLOT_DIM * SLOT_DIM
        self.identity = np.tile(np.eye(SLOT_DIM, dtype=complex), (k, 1, 1))
        self.identity.flags.writeable = False
        # The seven Hamiltonian terms over these slots, (7, k * 16).
        self.terms = _TERMS.reshape(len(_TERMS), N_SLOTS, -1)[:, self.index].reshape(len(_TERMS), -1)
        self.cross_sector = _CROSS_SECTOR[self.index]
        comp = _flat_positions(self.index)[_COMP].ravel()
        if np.any(comp[COMP_ENTRIES] < 0):
            raise ValueError(f"slots {self.index.tolist()} miss computational states")
        # Flattened stack position of each entry of the computational 4x4
        # block; an entry between two sectors reads position 0 and is zeroed.
        self.comp_source = np.maximum(comp, 0)


# The slots the gate needs (0 and 3), and all four.
GATE_SLOTS = SlotSet(COMPUTATIONAL_INDICES)
ALL_SLOTS = SlotSet(range(DIM_FULL))

_CONTROL_LO = np.array([EPS_BOUNDS[0], EPS_BOUNDS[0], TUN_BOUNDS[0]])
_CONTROL_HI = np.array([EPS_BOUNDS[1], EPS_BOUNDS[1], TUN_BOUNDS[1]])
_CONTROL_BOUNDS = (EPS_BOUNDS, EPS_BOUNDS, TUN_BOUNDS)

# Diagonal entries 0, 1, 2 of a flattened 4x4: they fix the virtual-Z phases.
_DIAG3 = slice(0, 2 * DIM_COMP + 3, DIM_COMP + 1)


@dataclass(frozen=True)
class HamiltonianParams:
    """Physical controls and constants of the two-dot system (all GHz).

    controls: (..., 3) steps of the on-site energies of dot 0 and dot 1
              and the tunnel coupling (``CONTROL_NAMES``).
    u:  Hubbard repulsion of each dot, shared by all steps.
    ez: Zeeman splitting (qubit resonance frequency) of each dot, shared.

    slots: the slots ``build_hamiltonian`` assembles (default all four).
    """

    controls: np.ndarray
    u: tuple[float, float]
    ez: tuple[float, float]
    slots: SlotSet = ALL_SLOTS

    def validate(self) -> np.ndarray:
        """The controls as a float array, checked in place.

        Rejects controls whose last axis is not 3, naming their shape,
        non-finite or out-of-bounds controls, naming the control and, for a
        batch, the step (row), and negative or non-finite ``u`` and ``ez``
        entries, naming the entry.
        """
        controls = np.asarray(self.controls, dtype=float)
        if controls.shape[-1:] != (3,):
            raise ValueError(
                f"controls must have shape (..., 3) {CONTROL_NAMES}, got {controls.shape}"
            )
        rows = controls.reshape(-1, 3)
        ok = (rows >= _CONTROL_LO) & (rows <= _CONTROL_HI)
        if not ok.all():
            t, k = np.argwhere(~ok)[0]
            value = rows[t, k]
            problem = (
                "is not finite" if not np.isfinite(value)
                else f"outside {_CONTROL_BOUNDS[k]} GHz"
            )
            step = f"step {t}: " if controls.ndim > 1 else ""
            raise ValueError(f"{step}{CONTROL_NAMES[k]}={value} {problem}")
        for name, values in (("u", self.u), ("ez", self.ez)):
            for i, v in enumerate(values):
                if not 0 <= v < np.inf:
                    raise ValueError(f"{name}[{i}]={v} must be " + ("finite" if v > 0 else ">= 0"))
        return controls


@dataclass(frozen=True)
class FidelityReport:
    """Gate fidelity of a (possibly leaky) 4x4 matrix against CZ.

    fidelity = (unitarity_trace + overlap) / (d*(d+1)) with d = 4, where
    unitarity_trace = Tr(U^dag U) and overlap = |Tr(CZ^dag U)|^2.
    Each field has the stack's shape: arrays over a stack of gates, and
    numpy float64 scalars, which are ``float`` instances, for one gate.
    """

    fidelity: float | np.ndarray
    unitarity_trace: float | np.ndarray
    overlap: float | np.ndarray

    def row(self, i: int) -> "FidelityReport":
        """The report of gate i of a stacked report."""
        return FidelityReport(
            float(self.fidelity[i]), float(self.unitarity_trace[i]), float(self.overlap[i])
        )


_SLOT_SETS = {slots.shape: slots for slots in (GATE_SLOTS, ALL_SLOTS)}


def _slots_of(u: np.ndarray) -> SlotSet:
    """The slot set of (..., k, 4, 4) stacks: k = 2 is ``GATE_SLOTS``, 4 is
    ``ALL_SLOTS``.  Every set holds slots 0 and 3, so k names it."""
    slots = _SLOT_SETS.get(u.shape[-3:])
    if slots is None:
        raise ValueError(f"expected (..., 2, 4, 4) or (..., 4, 4, 4) slot stacks, got {u.shape}")
    return slots


def build_hamiltonian(params: HamiltonianParams) -> np.ndarray:
    """Assemble H_eps + H_Z + H_U + H_T (GHz) as real blocks of the slots
    ``params.slots``.

    Returns (..., k, 4, 4) for (..., 3) controls.  The seven terms are
    summed entry by entry, elementwise in a fixed order, so each entry's
    bits depend neither on the batch size nor on the slots built beside it.
    """
    controls = params.validate()
    lead = controls.shape[:-1]
    coef = np.empty((math.prod(lead), len(_TERMS)))
    coef[:, :3] = controls.reshape(-1, 3)
    coef[:, 3:] = (params.ez[0], params.ez[1], params.u[0], params.u[1])
    slots = params.slots
    return (coef[:, :, None] * slots.terms).sum(axis=1).reshape(*lead, *slots.shape)


def evolve_step(h: np.ndarray, dt: float) -> np.ndarray:
    """Unitaries exp(-i 2*pi h dt) of (..., n, n) Hermitian h, by ``eigh``:
    the simulator's one matrix exponential.

    h in GHz, dt in ns; the 2*pi converts linear frequencies to angular.
    ``step_unitaries`` runs it on slot stacks; the tests run it on dense
    16x16 matrices as the oracle of the slot path.  Each matrix of a stack
    equals its own unstacked result bit for bit.
    """
    if not dt > 0:
        raise ValueError(f"dt={dt} must be positive")
    try:
        energies, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"eigendecomposition failed for {h.shape} Hamiltonian: {exc}"
        ) from exc
    phases = np.exp(-2j * np.pi * dt * energies)
    return (vectors * phases[..., None, :]) @ vectors.conj().swapaxes(-1, -2)


def step_unitaries(h: np.ndarray, dt: float) -> np.ndarray:
    """Step propagators of (..., k, 4, 4) Hamiltonians of the slots that k
    names (see ``_slots_of``): ``evolve_step`` on the slot stack, with the
    entries between two sectors of a slot reset to exact zeros.

    Each slot of h must be Hermitian, as every ``build_hamiltonian`` output
    is; real h gives a real-symmetric ``eigh``.  ``eigh`` may mix degenerate
    eigenvectors of the sectors in a slot, hence the reset.
    """
    slots = _slots_of(h)
    u = evolve_step(h, dt)
    np.copyto(u, 0, where=slots.cross_sector)
    return u


# The step product, slot by slot on (..., k, 4, 4) stacks: VecGateEnv._advance
# and env.replay_schedule both call it, and benchmarks/tracing.py wraps the name.
accumulate = np.matmul


def project_to_computational(u: np.ndarray) -> np.ndarray:
    """The 4x4 block over the computational indices {5,6,9,10}, read from
    (..., k, 4, 4) stacks of the slots that k names (see ``_slots_of``).

    One fixed gather reads the block's six same-sector entries; the ten
    between two sectors are written as exact +0.0.  The result is generally
    sub-unitary: amplitude outside the block is leakage and is simply
    dropped.
    """
    slots = _slots_of(u)
    lead = u.shape[:-3]
    gate = u.reshape(*lead, slots.size).take(slots.comp_source, axis=-1)
    np.copyto(gate, 0, where=_COMP_ZERO)
    return gate.reshape(*lead, DIM_COMP, DIM_COMP)


def compensate(u4: np.ndarray):
    """Remove the global phase and one virtual-Z per qubit where possible.

    Takes (4, 4) or a stack (..., 4, 4) and returns (gates, ok).  With
    z_k = conj(d_k)/|d_k| for the diagonal entries d_0, d_1, d_2, row k is
    multiplied by (z_0, z_1, z_2, z_1 z_2 conj(z_0))[k]; afterwards entries
    0, 1, 2 of the diagonal have zero argument, so a gate diagonal-equivalent
    to CZ becomes exactly diag(1, 1, 1, -1).  ok is False for a gate with some
    |d_k| below PHASE_TOL, which is returned unchanged.  All operations are
    elementwise, so a gate's bits do not depend on the stack it is in.
    """
    if u4.shape[-2:] != (DIM_COMP, DIM_COMP):
        raise ValueError(f"expected {DIM_COMP}x{DIM_COMP} matrices, got {u4.shape}")
    d = u4.reshape(*u4.shape[:-2], DIM_COMP * DIM_COMP)[..., _DIAG3]
    mag = np.abs(d)
    ok = mag.min(axis=-1) >= PHASE_TOL
    z = d.conj() / np.maximum(mag, PHASE_TOL)  # finite also for the gates left unchanged
    z3 = z[..., 1:2] * z[..., 2:3] * z[..., 0:1].conj()
    out = np.empty(u4.shape, dtype=complex)  # C order, whatever u4's layout
    np.multiply(np.concatenate([z, z3], axis=-1)[..., None], u4, out=out)
    if not ok.all():
        out[~ok] = u4[~ok]
    return out, ok


# benchmarks/tracing.py wraps this name.
def try_phase_compensate(u4: np.ndarray):
    """``compensate`` one 4x4 gate; returns (matrix, compensated) with a bool
    flag, and u4 unchanged where it cannot be compensated."""
    out, ok = compensate(u4)
    return out, bool(ok)


def gate_fidelity(u_final: np.ndarray) -> FidelityReport:
    """Fidelity of projected, compensated (..., 4, 4) gates against CZ.

    The report's fields have the stack's shape (see ``FidelityReport``).
    Each sum runs over one gate's own 16 entries, so a gate's bits do not
    depend on the stack it is in.
    """
    if u_final.shape[-2:] != (DIM_COMP, DIM_COMP):
        raise ValueError(f"expected {DIM_COMP}x{DIM_COMP} matrix, got {u_final.shape}")
    # C order makes each sum run over one gate's own contiguous entries.
    u = np.ascontiguousarray(u_final).reshape(*u_final.shape[:-2], DIM_COMP * DIM_COMP)
    ri = u.view(float)  # (re, im) pairs
    unitarity = (ri * ri).sum(axis=-1)
    overlap = np.abs((u * _CZ_CONJ).sum(axis=-1)) ** 2  # |Tr(CZ^dag U)|^2
    d = DIM_COMP
    fidelity = (unitarity + overlap) / (d * (d + 1))
    return FidelityReport(fidelity, unitarity, overlap)
