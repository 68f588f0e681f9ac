"""Simulator core: Hamiltonian, evolution, projection, compensation, fidelity."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dotgate import cli, sim
from dotgate.env import EnvConfig
from helpers import (
    CONSTANT_POINTS,
    NUMBER_OP,
    SZ_OP,
    WINDOWS,
    build,
    dense,
    dense_hamiltonian,
    exchange_t_max,
    fidelity_and_leakage,
    jw_annihilators,
    occupation_energy,
    random_hermitian,
    random_slot_stack,
    taylor_expm,
    window_schedule,
)

PAPER_EPS, U, EZ = (170.0, 70.0), (845.2, 845.2), (18.4, 19.7)


def random_controls(rng, n):
    return np.column_stack([
        rng.uniform(*sim.EPS_BOUNDS, n),
        rng.uniform(*sim.EPS_BOUNDS, n),
        rng.uniform(*sim.TUN_BOUNDS, n),
    ])


def propagate(controls, dt=1.0, u=U, ez=EZ):
    """Slot-form step unitaries of a (T, 3) batch of (eps0, eps1, tunnel) rows."""
    params = sim.HamiltonianParams(controls, u=u, ez=ez)
    return sim.step_unitaries(sim.build_hamiltonian(params), dt)


def dense_hamiltonian_of(params):
    """The dense 16x16 view of ``build_hamiltonian``."""
    return dense(sim.build_hamiltonian(params))


def slot_position(state):
    """(slot, position in the slot) of a full-space basis state."""
    k, i = np.argwhere(sim.SLOTS == state)[0]
    return k, i


def slot_entries():
    """(slot, row, column, row state, column state) of every slot entry."""
    for k, slot in enumerate(sim.SLOTS):
        for i, a in enumerate(slot):
            for j, b in enumerate(slot):
                yield k, i, j, a, b


def sector_labels():
    """(N, 2 S_z) of each basis state, from the helper operators."""
    return [(NUMBER_OP[s, s], 2 * SZ_OP[s, s]) for s in range(16)]


def occupations(state):
    return [(state >> (3 - m)) & 1 for m in range(4)]


class TestBuildHamiltonian:
    def test_all_zero_params_gives_zero_matrix(self):
        p = sim.HamiltonianParams((0, 0, 0), u=(0, 0), ez=(0, 0))
        assert np.all(sim.build_hamiltonian(p) == 0)
        assert np.all(dense_hamiltonian_of(p) == 0)

    def test_diagonal_entries_match_occupation_oracle(self):
        p = sim.HamiltonianParams((*PAPER_EPS, 0.0), U, EZ)
        h = dense_hamiltonian_of(p)
        assert np.count_nonzero(h - np.diag(np.diag(h))) == 0
        for s in range(16):
            expected = occupation_energy(s, PAPER_EPS, U, EZ)
            assert h[s, s].real == pytest.approx(expected, abs=1e-12)
        # frozen values from the oracle
        assert h[6, 6].real == pytest.approx(240.65, abs=1e-12)
        assert h[15, 15].real == pytest.approx(2170.4, abs=1e-12)

    def test_hermiticity_random_draws(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            p = sim.HamiltonianParams(
                controls=(*rng.uniform(-750, 750, 2), rng.uniform(0, 5)),
                u=tuple(rng.uniform(0, 1000, 2)),
                ez=tuple(rng.uniform(0, 30, 2)),
            )
            h = sim.build_hamiltonian(p)
            assert np.array_equal(h, h.swapaxes(-1, -2))
            h = dense(h)
            assert np.array_equal(h, h.conj().T)

    def test_particle_number_block_structure(self):
        # The dense view is zero between sectors by construction; the slot
        # blocks hold every entry H can have.
        p = sim.HamiltonianParams((*PAPER_EPS, 2.5), U, EZ)
        h = sim.build_hamiltonian(p)
        for k, i, j, a, b in slot_entries():
            if sum(occupations(a)) != sum(occupations(b)):
                assert h[k, i, j] == 0

    def test_tunneling_couples_same_spin_single_particle_states(self):
        p = sim.HamiltonianParams((0, 0, 1.5), u=(0, 0), ez=(0, 0))
        h = dense_hamiltonian_of(p)
        # dot0-up occupied (1000 = 8) <-> dot1-up occupied (0010 = 2)
        assert h[8, 2] == pytest.approx(-1.5)
        assert h[2, 8] == pytest.approx(-1.5)

    @pytest.mark.parametrize("tun", [0.0, 1.5, 2.5 / 3, 5.0])
    def test_hopping_slots_equal_jordan_wigner_products_bitwise(self, tun):
        # With every other control and constant zero, H is -tun times the
        # hopping, each zero entry +0.0; the hopping here is the sum over
        # spin of c0^dag c1 + h.c. from independently built JW operators.
        a = jw_annihilators()
        hop = sum(a[spin].T @ a[2 + spin] + a[2 + spin].T @ a[spin] for spin in range(2))
        want = 0.0 - tun * hop[sim.SLOTS[:, :, None], sim.SLOTS[:, None, :]]
        h = sim.build_hamiltonian(sim.HamiltonianParams((0.0, 0.0, tun), u=(0, 0), ez=(0, 0)))
        assert h.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "field,params",
        [
            ("eps", dict(controls=(800, 0, 1), u=(1, 1), ez=(1, 1))),
            ("tun", dict(controls=(0, 0, 6), u=(1, 1), ez=(1, 1))),
            ("u", dict(controls=(0, 0, 1), u=(-1, 1), ez=(1, 1))),
            ("ez", dict(controls=(0, 0, 1), u=(1, 1), ez=(-1, 1))),
        ],
    )
    def test_out_of_bounds_named_in_error(self, field, params):
        with pytest.raises(ValueError, match=field):
            sim.build_hamiltonian(sim.HamiltonianParams(**params))

    @pytest.mark.parametrize("field,value", [
        ("u", (1.0,)),
        ("u", ("a", 1.0)),
        ("ez", (1.0, 1.0, 5.0)),
        ("u", (True, 1.0)),
        ("ez", (1.0, np.True_)),
    ])
    def test_constants_not_two_numbers_named(self, field, value):
        p = sim.HamiltonianParams((0.0, 0.0, 1.0), **{"u": U, "ez": EZ, field: value})
        named = re.escape(f"{field}={value!r} must be a list of 2 numbers")
        for call in (p.validate, lambda: sim.build_hamiltonian(p)):
            with pytest.raises(ValueError, match=f"^{named}$"):
                call()

    def test_numpy_scalar_constants_are_numbers(self):
        p = sim.HamiltonianParams((0.0, 0.0, 1.0), [np.float32(845.2), 845], (np.int64(18), 19.7))
        assert sim.build_hamiltonian(p).shape == sim.ALL_SLOTS.shape

    @pytest.mark.parametrize("shape", [(), (2,), (4,), (5, 2), (3, 0)])
    def test_controls_whose_last_axis_is_not_3_named(self, shape):
        p = sim.HamiltonianParams(np.zeros(shape), u=(1, 1), ez=(1, 1))
        named = re.escape(f"(..., 3) {sim.CONTROL_NAMES}, got {shape}")
        for call in (p.validate, lambda: sim.build_hamiltonian(p)):
            with pytest.raises(ValueError, match=named):
                call()

    def test_leading_axes_equal_flat_rows_bitwise(self):
        controls = random_controls(np.random.default_rng(12), 6)
        flat = sim.build_hamiltonian(sim.HamiltonianParams(controls, U, EZ))
        grid = sim.build_hamiltonian(sim.HamiltonianParams(controls.reshape(2, 3, 3), U, EZ))
        assert grid.shape == (2, 3, *sim.ALL_SLOTS.shape)
        assert grid.tobytes() == flat.tobytes()
        with pytest.raises(ValueError, match="step 4: tunnel=6.0"):
            controls[4, 2] = 6.0
            sim.build_hamiltonian(sim.HamiltonianParams(controls.reshape(2, 3, 3), U, EZ))


class TestEvolveStep:
    def test_zero_hamiltonian_gives_identity(self):
        u = sim.evolve_step(np.zeros((16, 16), dtype=complex), 1.0)
        assert np.allclose(u, np.eye(16), atol=1e-14)

    def test_diagonal_entry_phase(self):
        h = np.zeros((16, 16), dtype=complex)
        h[6, 6] = 240.65
        u = sim.evolve_step(h, 1.0)
        # scalar exponential by hand: phase 2*pi*0.65 mod 2*pi
        expected = np.exp(-2j * np.pi * 0.65)
        assert u[6, 6] == pytest.approx(expected, abs=1e-12)
        assert u[6, 6].real == pytest.approx(-0.5877852522924734, abs=1e-12)
        assert u[6, 6].imag == pytest.approx(0.8090169943749448, abs=1e-12)

    def test_unitarity_for_large_random_hamiltonians(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            h = random_hermitian(rng, 16, scale=1000.0)
            u = sim.evolve_step(h, 1.0)
            err = np.max(np.abs(u.conj().T @ u - np.eye(16)))
            assert err < 1e-10

    def test_matches_taylor_series_for_small_norm(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            h = random_hermitian(rng, 16, scale=1e-4)
            assert np.linalg.norm(2 * np.pi * h) < 0.1
            u = sim.evolve_step(h, 1.0)
            oracle = taylor_expm(-2j * np.pi * h, terms=20)
            assert np.max(np.abs(u - oracle)) < 1e-10

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ValueError, match="dt"):
            sim.evolve_step(np.zeros((16, 16)), 0.0)

    def test_nan_dt_rejected(self):
        with pytest.raises(ValueError, match=r"^dt=nan must be positive$"):
            sim.evolve_step(np.zeros((16, 16)), float("nan"))

    def test_stack_equals_its_per_matrix_calls_bitwise(self):
        rng = np.random.default_rng(11)
        h = np.stack([random_hermitian(rng, 4, scale=100.0) for _ in range(6)])
        u = sim.evolve_step(h, 0.7)
        assert u.shape == (6, 4, 4)
        for i in range(len(h)):
            assert u[i].tobytes() == sim.evolve_step(h[i], 0.7).tobytes()


class TestAccumulate:
    def test_identity_factor(self):
        u = random_slot_stack(np.random.default_rng(3))
        assert np.array_equal(sim.accumulate(sim.ALL_SLOTS.identity, u), u)
        assert np.array_equal(sim.accumulate(u, sim.ALL_SLOTS.identity), u)
        assert np.array_equal(dense(sim.ALL_SLOTS.identity), np.eye(16))

    def test_product_matches_direct_multiply(self):
        rng = np.random.default_rng(4)
        a, b = random_slot_stack(rng), random_slot_stack(rng)
        prod = sim.accumulate(a, b)
        assert np.array_equal(prod, a @ b)
        full = dense(prod)
        assert np.max(np.abs(full.conj().T @ full - np.eye(16))) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            sim.accumulate(np.eye(16), np.eye(4))

    # The build the bitwise equality below was recorded on (helpers.build):
    # on the Haswell core the 4x4 and 16x16 kernels round apart.
    BITWISE_BUILD = (
        "numpy 2.4.6, SIMD X86_V3 X86_V4 AVX512_ICL AVX512_SPR, "
        "blas scipy-openblas 0.3.31.188.0, core SkylakeX"
    )

    @pytest.mark.witness
    @pytest.mark.parametrize("shape", [(), (1,), (8,)])
    def test_slot_product_equals_dense_product_bitwise(self, shape):
        rng = np.random.default_rng(36)
        for _ in range(50):
            a = random_slot_stack(rng, shape, unitary=False)
            b = random_slot_stack(rng, shape, unitary=False)
            assert np.array_equal(
                dense(sim.accumulate(a, b)),
                sim.accumulate(dense(a), dense(b)),
            ), (f"slot and dense products differ on build [{build()}]; "
                f"recorded equal on build [{self.BITWISE_BUILD}]")

    @pytest.mark.parametrize("shape", [(), (1,), (8,)])
    def test_slot_product_equals_dense_product_to_roundoff(self, shape):
        # Holds on every OpenBLAS core: cross-sector entries are exact zeros in
        # both products, and the rest agree to roundoff.
        rng = np.random.default_rng(36)
        cross = sim.DENSE_POSITIONS < 0
        for _ in range(50):
            a = random_slot_stack(rng, shape, unitary=False)
            b = random_slot_stack(rng, shape, unitary=False)
            slot, full = sim.accumulate(a, b), sim.accumulate(dense(a), dense(b))
            assert not slot[..., sim.ALL_SLOTS.cross_sector].any()
            assert not full[..., cross].any()
            assert np.abs(dense(slot) - full).max() <= 1e-15 * np.abs(full).max()


class TestProjection:
    def test_identity_projects_to_identity(self):
        assert np.array_equal(sim.project_to_computational(sim.ALL_SLOTS.identity), np.eye(4))

    def test_full_leakage_gives_zero_block(self):
        u = np.ones(sim.ALL_SLOTS.shape, dtype=complex)
        for state in sim.COMPUTATIONAL_INDICES:
            u[slot_position(state)] = 0
        assert np.all(sim.project_to_computational(u) == 0)

    def test_projected_norm_bounded_for_random_unitaries(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = sim.project_to_computational(random_slot_stack(rng))
            assert np.real(np.trace(p.conj().T @ p)) <= 4 + 1e-10

    def test_wrong_dimension(self):
        with pytest.raises(ValueError, match="16"):
            sim.project_to_computational(np.eye(16, dtype=complex))

    @pytest.mark.parametrize("shape", [(), (1,), (8,)])
    def test_reads_dense_computational_block_bitwise(self, shape):
        rng = np.random.default_rng(37)
        comp = np.array(sim.COMPUTATIONAL_INDICES)
        for _ in range(50):
            u = random_slot_stack(rng, shape, unitary=False)
            assert np.array_equal(
                sim.project_to_computational(u),
                dense(u)[..., comp[:, None], comp[None, :]],
            )


class TestGateSlots:
    """A stack of the gate's slots (0 and 3) gets the bits of those slots of
    the four-slot stack."""

    def test_slot_sets(self):
        assert sim.GATE_SLOTS.index.tolist() == [0, 3]
        assert sim.ALL_SLOTS.index.tolist() == [0, 1, 2, 3]
        comp = set(sim.COMPUTATIONAL_INDICES)
        held = [bool(comp & set(slot)) for slot in sim.SLOTS.tolist()]
        assert held == [k in sim.GATE_SLOTS.index for k in range(sim.N_SLOTS)]
        with pytest.raises(ValueError, match="computational"):
            sim.SlotSet([1, 4])

    @pytest.mark.parametrize("batch", range(1, 17))
    def test_build_step_and_accumulate_bitwise(self, batch):
        rng = np.random.default_rng(40 + batch)
        gate = sim.GATE_SLOTS
        u_gate = np.tile(gate.identity, (batch, 1, 1, 1))
        u_all = np.tile(sim.ALL_SLOTS.identity, (batch, 1, 1, 1))
        for _ in range(20):
            controls = random_controls(rng, batch)
            params = sim.HamiltonianParams(controls, u=U, ez=EZ)
            h_all = sim.build_hamiltonian(params)
            h_gate = sim.build_hamiltonian(dataclasses.replace(params, slots=gate))
            assert h_gate.tobytes() == h_all[:, gate.index].tobytes()
            s_all = sim.step_unitaries(h_all, 1.0)
            s_gate = sim.step_unitaries(h_gate, 1.0)
            assert s_gate.tobytes() == s_all[:, gate.index].tobytes()
            u_all = sim.accumulate(s_all, u_all)
            u_gate = sim.accumulate(s_gate, u_gate)
            assert u_gate.tobytes() == u_all[:, gate.index].tobytes()

    @pytest.mark.parametrize("shape", [(), (1,), (8,)])
    def test_projection_equals_dense_block_bytes(self, shape):
        # Entries between sectors hold -0.0 in the stack and +0.0 in the
        # dense view; the projection must give the dense view's bytes.
        rng = np.random.default_rng(42)
        comp = np.array(sim.COMPUTATIONAL_INDICES)
        between = np.ones(16, dtype=bool)
        between[sim.COMP_ENTRIES] = False
        for _ in range(50):
            u = random_slot_stack(rng, shape, unitary=False)
            u[..., sim.ALL_SLOTS.cross_sector] = complex(-0.0, -0.0)
            want = dense(u)[..., comp[:, None], comp]
            zeros = want.reshape(*shape, 16)[..., between]
            assert np.all(zeros == 0) and not np.signbit([zeros.real, zeros.imag]).any()
            gate = u[..., sim.GATE_SLOTS.index, :, :]
            assert sim.project_to_computational(gate).tobytes() == want.tobytes()
            assert sim.project_to_computational(u).tobytes() == want.tobytes()

    def test_wrong_slot_count_rejected(self):
        # Only 2 (the gate's slots) and 4 (all) name a slot set.
        for shape in [(1, 4, 4), (3, 4, 4), (5, 3, 4, 4)]:
            stack = np.zeros(shape, dtype=complex)
            named = re.escape(str(shape))
            with pytest.raises(ValueError, match=named):
                sim.project_to_computational(stack)
            with pytest.raises(ValueError, match=named):
                sim.step_unitaries(stack.real, 1.0)


class TestPhaseCompensation:
    def test_identity_unchanged(self):
        out, ok = sim.compensate(np.eye(4, dtype=complex))
        assert ok
        assert np.allclose(out, np.eye(4))

    def test_virtual_z_phase_algebra(self):
        u = np.diag(np.exp(1j * np.array([0.3, 0.5, 0.7, 1.2])))
        out, ok = sim.compensate(u)
        assert ok
        expected = np.diag([1, 1, 1, np.exp(1j * 0.3)])
        assert np.allclose(out, expected, atol=1e-12)

    def test_global_phase_times_cz_recovers_cz(self):
        for alpha in (0.0, 0.9, -2.4):
            u = np.exp(1j * alpha) * sim.CZ
            out, ok = sim.compensate(u)
            assert ok
            assert np.allclose(out, sim.CZ, atol=1e-12)

    def test_degenerate_diagonal_raises(self):
        u = np.eye(4, dtype=complex)
        u[1, 1] = 1e-9
        out, ok = sim.compensate(u)
        assert not ok
        assert np.array_equal(out, u)

    def test_idempotence(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            u = sim.project_to_computational(random_slot_stack(rng))
            if np.any(np.abs(np.diag(u)[:3]) < sim.PHASE_TOL):
                continue
            once, ok = sim.compensate(u)
            twice, ok_twice = sim.compensate(once)
            assert ok and ok_twice
            assert np.max(np.abs(twice - once)) < 1e-12

    def test_fixed_point_of_virtual_z_orbit(self):
        # Pre-multiplying by any global-phase x single-qubit virtual-Z
        # diagonal must not change the compensated result.
        rng = np.random.default_rng(9)
        for _ in range(50):
            u = sim.project_to_computational(random_slot_stack(rng))
            if np.any(np.abs(np.diag(u)[:3]) < sim.PHASE_TOL):
                continue
            g, a, b = rng.uniform(-np.pi, np.pi, 3)
            d = np.diag(np.exp(1j * np.array([g, g + b, g + a, g + a + b])))
            base, ok = sim.compensate(u)
            orbit, ok_orbit = sim.compensate(d @ u)
            assert ok and ok_orbit
            assert np.max(np.abs(orbit - base)) < 1e-10

    def test_try_compensate_falls_back_without_error(self):
        u = np.eye(4, dtype=complex)
        u[0, 0] = 0.0
        out, ok = sim.try_phase_compensate(u)
        assert not ok
        assert np.array_equal(out, u)


class TestGateFidelity:
    def test_perfect_cz(self):
        rep = sim.gate_fidelity(sim.CZ)
        assert all(isinstance(v, float) for v in vars(rep).values())
        assert rep.fidelity == pytest.approx(1.0, abs=1e-12)
        assert rep.unitarity_trace == pytest.approx(4.0, abs=1e-12)
        assert rep.overlap == pytest.approx(16.0, abs=1e-12)

    def test_identity_vs_cz(self):
        # Tr(CZ) = 2, so (4 + 4) / 20
        rep = sim.gate_fidelity(np.eye(4, dtype=complex))
        assert rep.fidelity == pytest.approx(0.4, abs=1e-12)

    def test_leaky_half_cz(self):
        rep = sim.gate_fidelity(0.5 * sim.CZ)
        assert rep.fidelity == pytest.approx(0.25, abs=1e-12)
        assert rep.unitarity_trace == pytest.approx(1.0, abs=1e-12)
        assert rep.overlap == pytest.approx(4.0, abs=1e-12)

    def test_report_invariant_holds(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            p = sim.project_to_computational(random_slot_stack(rng))
            rep = sim.gate_fidelity(p)
            assert rep.fidelity == (rep.unitarity_trace + rep.overlap) / 20.0

    def test_bounds_for_projected_matrices(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            p = sim.project_to_computational(random_slot_stack(rng))
            rep = sim.gate_fidelity(p)
            assert 0.0 <= rep.fidelity <= 1.0 + 1e-12


class TestStackedGatePipeline:
    def test_stacked_rows_equal_single_gates_bitwise(self):
        rng = np.random.default_rng(35)
        u16 = random_slot_stack(rng, (64,))
        k, i = slot_position(6)
        u16[3, k, i, i] = 0.0  # a gate that cannot be compensated
        u4 = sim.project_to_computational(u16)
        gates, ok = sim.compensate(u4)
        report = sim.gate_fidelity(gates)
        assert ok.tolist() == [i != 3 for i in range(64)]
        for i in range(64):
            assert np.array_equal(u4[i], sim.project_to_computational(u16[i]))
            single, flag = sim.try_phase_compensate(u4[i])
            assert flag is bool(ok[i])
            assert np.array_equal(gates[i], single)
            assert report.row(i) == sim.gate_fidelity(single)
        for size in (1, 2, 7):
            for start in range(0, 64 - size, 5):
                part = slice(start, start + size)
                g, k = sim.compensate(u4[part])
                assert np.array_equal(g, gates[part]) and np.array_equal(k, ok[part])
                r = sim.gate_fidelity(g)
                assert np.array_equal(r.fidelity, report.fidelity[part])
                assert np.array_equal(r.overlap, report.overlap[part])


class TestSectors:
    def test_slot_layout(self):
        expected = [[3, 6, 9, 12], [1, 4, 2, 8], [7, 13, 11, 14], [0, 5, 10, 15]]
        assert sim.SLOTS.tolist() == expected

    @settings(max_examples=200)
    @given(
        eps0=st.floats(*sim.EPS_BOUNDS),
        eps1=st.floats(*sim.EPS_BOUNDS),
        tun=st.floats(*sim.TUN_BOUNDS),
        u=st.tuples(st.floats(0, 2000), st.floats(0, 2000)),
        ez=st.tuples(st.floats(0, 100), st.floats(0, 100)),
    )
    def test_hamiltonian_conserves_n_and_sz(self, eps0, eps1, tun, u, ez):
        members = sorted(s for sector in sim.SECTORS for s in sector)
        assert members == list(range(16))
        labels = sector_labels()
        for sector in sim.SECTORS:
            assert len({labels[s] for s in sector}) == 1
        assert len({labels[sector[0]] for sector in sim.SECTORS}) == len(sim.SECTORS)
        slots = sim.build_hamiltonian(
            sim.HamiltonianParams((eps0, eps1, tun), u=u, ez=ez)
        )
        for k, i, j, a, b in slot_entries():
            if labels[a] != labels[b]:
                assert slots[k, i, j] == 0
        h = dense(slots)
        assert np.array_equal(h @ NUMBER_OP, NUMBER_OP @ h)
        assert np.array_equal(h @ SZ_OP, SZ_OP @ h)


class TestStepUnitaries:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(30)
        controls = random_controls(rng, 500)
        worst = 0.0
        for (e0, e1, tun), u_step in zip(controls, dense(propagate(controls))):
            oracle = sim.evolve_step(dense_hamiltonian((e0, e1), tun, U, EZ), 1.0)
            worst = max(worst, float(np.max(np.abs(u_step - oracle))))
        assert worst <= 1e-10

    def test_random_constants_match_dense_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            u, ez = tuple(rng.uniform(0, 2000, 2)), tuple(rng.uniform(0, 100, 2))
            controls = random_controls(rng, 1)
            (e0, e1, tun), = controls
            dt = rng.uniform(0.1, 2.0)
            u_step = dense(propagate(controls, dt, u, ez)[0])
            oracle = sim.evolve_step(dense_hamiltonian((e0, e1), tun, u, ez), dt)
            assert np.max(np.abs(u_step - oracle)) <= 1e-10

    def test_stacked_call_equals_single_rows_bitwise(self):
        controls = random_controls(np.random.default_rng(32), 200)
        stacked = propagate(controls)
        for t, (e0, e1, tun) in enumerate(controls):
            assert np.array_equal(stacked[t], propagate(controls[t : t + 1])[0])
            params = sim.HamiltonianParams((e0, e1, tun), u=U, ez=EZ)
            single = sim.step_unitaries(sim.build_hamiltonian(params), 1.0)
            assert np.array_equal(stacked[t], single)

    # Controls the env's discrete steps reach: signed zeros and the box edges
    # as well as any point inside.
    EPS = st.one_of(st.sampled_from([-750.0, -0.0, 0.0, 750.0]), st.floats(*sim.EPS_BOUNDS))
    TUN = st.one_of(st.sampled_from([-0.0, 0.0, 5.0]), st.floats(*sim.TUN_BOUNDS))

    @settings(max_examples=150)
    @given(
        distinct=st.lists(st.tuples(EPS, EPS, TUN), min_size=1, max_size=8),
        picks=st.lists(st.integers(0, 7), min_size=1, max_size=32),
        slots=st.sampled_from([sim.GATE_SLOTS, sim.ALL_SLOTS]),
    )
    def test_any_batch_row_equals_its_one_row_call_bitwise(self, distinct, picks, slots):
        # The env's propagator cache reuses a row built in one batch for a
        # row of another, so each row's bits must not depend on the batch.
        controls = np.array([distinct[i % len(distinct)] for i in picks])

        def step(rows):
            h = sim.build_hamiltonian(sim.HamiltonianParams(rows, U, EZ, slots))
            return sim.step_unitaries(h, 1.0)

        stacked = step(controls)
        assert stacked.shape == (len(controls), *slots.shape)
        for t in range(len(controls)):
            assert stacked[t].tobytes() == step(controls[t:t + 1])[0].tobytes()

    def test_unitary_with_exact_zeros_between_sectors(self):
        slots = propagate(random_controls(np.random.default_rng(33), 1))[0]
        u = dense(slots)
        labels = sector_labels()
        assert np.max(np.abs(u.conj().T @ u - np.eye(16))) < 1e-12
        for k, i, j, a, b in slot_entries():
            if labels[a] != labels[b]:
                assert slots[k, i, j] == 0

    def test_mixed_degenerate_eigenvectors_stay_in_their_sectors(self, monkeypatch):
        # With ez = 0 and no detuning, the sectors {1,4} and {2,8} of slot 1
        # have the same spectrum (-1, -1, 1, 1).  An eigh that returns each
        # degenerate pair rotated into a mix of both sectors is still a valid
        # decomposition; the step unitary must not leak between the sectors.
        h = sim.build_hamiltonian(
            sim.HamiltonianParams((0, 0, 1.0), u=(0, 0), ez=(0, 0))
        )
        eigh = np.linalg.eigh

        def mixing_eigh(a):
            energies, vectors = eigh(a)
            vectors = vectors.copy()
            c, s = np.cos(0.3), np.sin(0.3)
            for j in (0, 2):
                x, y = vectors[1, :, j].copy(), vectors[1, :, j + 1].copy()
                vectors[1, :, j], vectors[1, :, j + 1] = c * x + s * y, c * y - s * x
            return energies, vectors

        monkeypatch.setattr(np.linalg, "eigh", mixing_eigh)
        u = sim.step_unitaries(h, 1.0)
        monkeypatch.undo()
        assert np.all(u[1, :2, 2:] == 0) and np.all(u[1, 2:, :2] == 0)
        oracle = sim.evolve_step(dense(h), 1.0)
        assert np.max(np.abs(dense(u) - oracle)) <= 1e-12

    def test_complex_conserving_hamiltonian(self):
        # A diagonal gauge D H D^dag keeps every sector but makes H complex.
        rng = np.random.default_rng(34)
        (e0, e1, tun), = random_controls(rng, 1)
        gauge = np.exp(1j * rng.uniform(0, 2 * np.pi, 16))
        h = gauge[:, None] * dense_hamiltonian((e0, e1), tun, U, EZ) * gauge.conj()
        u_step = dense(sim.step_unitaries(h[sim.SLOTS[:, :, None], sim.SLOTS[:, None, :]], 1.0))
        assert np.max(np.abs(u_step - sim.evolve_step(h, 1.0))) <= 1e-10
        assert np.max(np.abs(u_step.conj().T @ u_step - np.eye(16))) < 1e-12

    def test_empty_batch(self):
        assert propagate(np.empty((0, 3))).shape == (0, *sim.ALL_SLOTS.shape)
        assert dense(propagate(np.empty((0, 3)))).shape == (0, 16, 16)

    @pytest.mark.parametrize(
        "column,value,problem",
        [(0, 751.0, "outside"), (1, np.nan, "not finite"),
         (2, -0.1, "outside"), (2, np.inf, "not finite")],
    )
    def test_bad_control_names_step_and_control(self, column, value, problem):
        controls = np.tile([170.0, 70.0, 2.5], (4, 1))
        controls[2, column] = value
        name = sim.CONTROL_NAMES[column]
        with pytest.raises(ValueError, match=f"step 2: {name}=.*{problem}"):
            propagate(controls)

    def test_bad_dt_and_constants(self):
        with pytest.raises(ValueError, match="dt"):
            sim.step_unitaries(np.zeros(sim.ALL_SLOTS.shape), 0.0)
        with pytest.raises(ValueError, match="ez"):
            propagate(np.array([[0.0, 0.0, 1.0]]), ez=(np.nan, 1.0))


class TestExchangeOracle:
    """Superexchange J = 4 t^2 U / (U^2 - de^2) (Burkard, Loss & DiVincenzo,
    PRB 59, 2070 (1999)) against the eigenvalues of the slot blocks."""

    def slot_eigen(self, state, h):
        """Eigen-decomposition of the slot holding state, and its position."""
        k, i = slot_position(state)
        energies, vectors = np.linalg.eigh(h[k])
        return k, i, energies, vectors

    def test_exchange_coupling_and_cz_time(self, tmp_path):
        eps, tun = (170.0, 70.0), 2.5
        h = sim.build_hamiltonian(sim.HamiltonianParams((*eps, tun), u=U, ez=EZ))
        single = []
        for state in (5, 10):
            _, i, energies, vectors = self.slot_eigen(state, h)
            single.append(energies[np.argmax(np.abs(vectors[i]))])
        k, i6, energies, vectors = self.slot_eigen(6, h)
        _, i9, _, _ = self.slot_eigen(9, h)
        weight = vectors[i6] ** 2 + vectors[i9] ** 2
        pair = energies[np.argsort(weight)[-2:]]
        j_slots = single[0] + single[1] - pair.sum()

        detuning = eps[0] - eps[1]
        j_analytic = 4 * tun**2 * U[0] / (U[0] ** 2 - detuning**2)
        assert j_analytic == pytest.approx(0.0300, abs=5e-5)
        assert j_slots == pytest.approx(j_analytic, rel=1e-3)
        assert 1 / (2 * j_slots) == pytest.approx(16.67, abs=0.01)

        path = tmp_path / "const.csv"
        path.write_text("step,eps0_ghz,eps1_ghz,tunnel_ghz\n0,170,70,2.5\n")
        trace = cli.run_replay(path, EnvConfig(), sweep_duration=30)["fidelity_trace"]
        first = next(k for k, f in enumerate(trace) if f > 0.999)
        assert first + 1 == 17


class TestWindowedExchangeOracle:
    """A windowed exchange CZ, t_k = t_max sin^2(pi (k + 1/2) / T) at fixed
    detunings, calibrated on replayed F, meets the exchange model's
    integral of J over the pulse = 1/2 (``helpers.exchange_t_max``)."""

    @staticmethod
    def calibrate(eps, duration):
        """The t_max of the best replayed F: the best of a 31-point grid over
        [3.5, 5.0] GHz, refined by golden-section search between its
        neighbours."""
        def fidelity(t_max):
            return fidelity_and_leakage(window_schedule(eps, duration, t_max))[0]

        grid = np.linspace(3.5, 5.0, 31)
        best = int(np.argmax([fidelity(t) for t in grid]))
        a, b = grid[max(best - 1, 0)], grid[min(best + 1, len(grid) - 1)]
        shrink = (math.sqrt(5.0) - 1.0) / 2.0
        c, d = b - shrink * (b - a), a + shrink * (b - a)
        fc, fd = fidelity(c), fidelity(d)
        while b - a > 1e-7:
            if fc > fd:
                b, d, fd = d, c, fc
                c = b - shrink * (b - a)
                fc = fidelity(c)
            else:
                a, c, fc = c, d, fd
                d = a + shrink * (b - a)
                fd = fidelity(d)
        t_max = (a + b) / 2.0
        return t_max, fidelity(t_max)

    @pytest.mark.parametrize("window, f_min", list(zip(WINDOWS, (0.99999, 0.9998))),
                             ids=["de100_16ns", "de600_8ns"])
    def test_calibrated_amplitude_meets_half_exchange_integral(self, window, f_min):
        eps, duration = window
        t_max, fidelity = self.calibrate(eps, duration)
        assert t_max == pytest.approx(exchange_t_max(eps, duration), rel=1e-3)
        assert fidelity > f_min


class TestConstantPulseOracles:
    """Analytic properties of constant pulses, replayed by ``replay_schedule``."""

    @pytest.mark.parametrize("controls, duration", CONSTANT_POINTS,
                             ids=["hold_17ns", "point_10ns", "point_3ns"])
    def test_common_detuning_offset_moves_neither_f_nor_leakage(self, controls, duration):
        # Adding d to both detunings adds d N to H: a phase within each
        # conserved-N sector, which compensation and leakage do not see.
        f0, leak0 = fidelity_and_leakage(np.tile(controls, (duration, 1)))
        lo, hi = sim.EPS_BOUNDS
        for offset in (-37.5, -3.0, 0.25, 1.0, 12.0, 80.0):
            eps = controls[0] + offset, controls[1] + offset
            if not lo <= min(eps) <= max(eps) <= hi:
                continue
            f, leak = fidelity_and_leakage(np.tile((*eps, controls[2]), (duration, 1)))
            assert abs(f - f0) <= 1e-10, offset
            assert abs(leak - leak0) <= 1e-10, offset

    def test_leakage_has_period_one_over_t_in_eps0(self):
        # At the 10 ns point U T = 8452 and (eps0 - eps1) T = 250 are
        # integers, so leakage sits at a zero, which repeats every 1/T in eps0.
        (eps0, eps1, tunnel), duration = CONSTANT_POINTS[1]

        def leakage(shift):
            return fidelity_and_leakage(np.tile((eps0 + shift, eps1, tunnel), (duration, 1)))[1]

        base = leakage(0.0)
        assert base < 1e-7
        for k in (-1, 1, 2, 3):
            assert leakage(k / duration) == pytest.approx(base, rel=0.05), k
        for k in (-3, -1, 1, 3, 5):
            assert leakage(k / (2 * duration)) > 1e-5, k
