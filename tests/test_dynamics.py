import numpy as np
import pytest

from qtomo import (
    PAULI,
    ContractViolation,
    LindbladModel,
    density_from_state,
    ehrenfest_derivative,
    gibbs_state,
    lie_product,
    lindblad_evolve,
    poisson_bracket,
    quantum_value,
    rydberg_ritz_lines,
    schrodinger_evolve,
    sliced_master,
    spectral_solution,
    trace_distance,
    validate_density,
    von_neumann_evolve,
)
from support import random_density, random_hermitian


class TestSliceEvolution:
    def test_zero_generator_constant(self):
        rho = np.diag([0.3, 0.7])
        traj = sliced_master(LindbladModel(np.zeros((2, 2))), rho, 0.1, 25)
        assert np.allclose(traj.final, rho)
        assert len(traj) == 26

    def test_first_order_convergence_to_von_neumann(self):
        rng = np.random.default_rng(90)
        for d in (2, 4):
            h = random_hermitian(d, rng)
            rho = random_density(d, rng)
            exact = von_neumann_evolve(h, rho, 1.0)
            errors = []
            for n in (512, 1024):
                traj = sliced_master(LindbladModel(h), rho, 1.0 / n, n)
                errors.append(np.max(np.abs(traj.final - exact)))
            ratio = errors[0] / errors[1]
            assert 1.8 <= ratio <= 2.2

    def test_lossless_generator_trace_drift_second_order(self):
        rng = np.random.default_rng(89)
        h = random_hermitian(3, rng)
        rho = random_density(3, rng)
        for dt in (1e-2, 1e-3):
            traj = sliced_master(LindbladModel(h), rho, dt, 1)
            drift = abs(np.trace(traj.final).real - 1.0)
            assert drift <= dt * dt * np.linalg.norm(h, 2) ** 2 * 2.0

    def test_uniform_decay_generator(self):
        gamma = 0.8
        rho = np.diag([0.4, 0.6])
        dt, steps = 1e-4, 10_000
        model = LindbladModel(np.zeros((2, 2)), V=gamma * np.eye(2))
        traj = sliced_master(model, rho, dt, steps)
        expected = np.exp(-2.0 * gamma * dt * steps)
        assert np.trace(traj.final).real == pytest.approx(expected, rel=1e-3)

    def test_snapshots_stay_hermitian(self):
        rng = np.random.default_rng(91)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        jump = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        model = LindbladModel(random_hermitian(3, rng), (jump,), (0.3,), V=g @ g.conj().T)
        traj = sliced_master(model, random_density(3, rng), 0.01, 50)
        for state in traj.states:
            assert np.max(np.abs(state - state.conj().T)) <= 1e-12

    def test_passive_medium_trace_nonincreasing(self):
        rng = np.random.default_rng(92)
        h = random_hermitian(3, rng)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        v = g @ g.conj().T  # PSD dissipative potential
        dt = 1e-3
        traj = sliced_master(LindbladModel(h, V=v), random_density(3, rng), dt, 200)
        traces = np.einsum("nii->n", traj.states).real
        bound = 10.0 * dt * dt * np.linalg.norm(-1j * h - v, 2) ** 2
        assert np.all(np.diff(traces) <= bound)

    def test_invalid_dt(self):
        with pytest.raises(ContractViolation):
            sliced_master(LindbladModel(np.zeros((2, 2))), np.eye(2), -0.1, 5)

    def test_invalid_potential_rejected(self):
        with pytest.raises(ContractViolation, match="PSD"):
            LindbladModel(np.zeros((2, 2)), V=-np.eye(2))
        with pytest.raises(ContractViolation, match="Hermitian"):
            LindbladModel(np.zeros((2, 2)), V=np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ContractViolation, match="shape"):
            LindbladModel(np.zeros((2, 2)), V=np.eye(1))
        with pytest.raises(ContractViolation, match="shape"):
            LindbladModel(np.zeros((2, 2)), (np.eye(3),), (0.1,))


class TestVonNeumann:
    def test_commuting_state_constant(self):
        h = np.diag([0.0, 1.0])
        rho = np.diag([0.3, 0.7])
        assert np.allclose(von_neumann_evolve(h, rho, 2.7), rho)

    def test_qubit_precession(self):
        rho = 0.5 * (np.eye(2) + PAULI[1])
        for t in (0.0, 0.3, 1.1):
            out = von_neumann_evolve(PAULI[3], rho, t)
            assert quantum_value(out, PAULI[1]).real == pytest.approx(np.cos(2 * t))

    def test_maximally_mixed_constant(self):
        rng = np.random.default_rng(93)
        h = random_hermitian(2, rng)
        assert np.allclose(von_neumann_evolve(h, 0.5 * np.eye(2), 1.3), 0.5 * np.eye(2))

    def test_trace_and_spectrum_preserved(self):
        rng = np.random.default_rng(94)
        h = random_hermitian(4, rng)
        rho = random_density(4, rng, trace=1.6)
        out = von_neumann_evolve(h, rho, 0.9)
        assert np.trace(out).real == pytest.approx(1.6, abs=1e-12)
        assert np.allclose(
            np.linalg.eigvalsh(out), np.linalg.eigvalsh(rho), atol=1e-12
        )


class TestSchrodinger:
    def test_stationary_state_phase(self):
        h = np.diag([0.5, 2.0])
        psi0 = np.array([1.0, 0.0], dtype=complex)
        out = schrodinger_evolve(h, psi0, 1.7)
        assert np.allclose(out, np.exp(-0.5j * 1.7) * psi0)

    def test_populations_invariant_for_diagonal_hamiltonian(self):
        h = np.diag([0.0, 1.0])
        psi0 = np.array([1.0, 1.0]) / np.sqrt(2)
        for t in (0.2, 0.9, 4.0):
            out = schrodinger_evolve(h, psi0, t)
            assert abs(out[0]) ** 2 == pytest.approx(0.5)
            assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_consistent_with_von_neumann(self):
        rng = np.random.default_rng(95)
        h = random_hermitian(3, rng)
        psi0 = rng.normal(size=3) + 1j * rng.normal(size=3)
        lhs = density_from_state(schrodinger_evolve(h, psi0, 0.8))
        rhs = von_neumann_evolve(h, density_from_state(psi0), 0.8)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_spectral_solution_components_are_eigenvectors(self):
        rng = np.random.default_rng(96)
        h = random_hermitian(4, rng)
        psi0 = rng.normal(size=4) + 1j * rng.normal(size=4)
        parts = spectral_solution(h, psi0)
        recombined = np.zeros(4, dtype=complex)
        for energy, comp in parts:
            assert np.linalg.norm(h @ comp - energy * comp) <= 1e-9
            recombined += comp
        assert np.allclose(recombined, psi0)

    def test_spectral_solution_reproduces_evolution(self):
        rng = np.random.default_rng(97)
        h = random_hermitian(3, rng)
        psi0 = rng.normal(size=3) + 1j * rng.normal(size=3)
        t = 1.3
        from_parts = sum(
            np.exp(-1j * t * energy) * comp for energy, comp in spectral_solution(h, psi0)
        )
        assert np.allclose(from_parts, schrodinger_evolve(h, psi0, t))

    def test_degenerate_levels_grouped(self):
        h = np.diag([1.0, 1.0, 3.0])
        psi0 = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
        parts = spectral_solution(h, psi0)
        assert len(parts) == 2


class TestLindblad:
    def test_pure_dephasing_off_diagonal_decay(self):
        gamma = 0.7
        model = LindbladModel(np.zeros((2, 2)), (PAULI[3],), (gamma,))
        rho0 = density_from_state(np.array([1.0, 1.0]) / np.sqrt(2))
        for gt in (0.5, 1.0, 2.0):
            t = gt / gamma
            traj = lindblad_evolve(model, rho0, t, t / 16)
            expected = 0.5 * np.exp(-2.0 * gamma * t)
            assert abs(traj.final[0, 1] - expected) <= 1e-6

    def test_zero_rates_reduce_to_von_neumann(self):
        rng = np.random.default_rng(98)
        h = random_hermitian(2, rng)
        model = LindbladModel(h, (PAULI[1],), (0.0,))
        rho0 = random_density(2, rng)
        traj = lindblad_evolve(model, rho0, 1.0, 0.125)
        assert np.max(np.abs(traj.final - von_neumann_evolve(h, rho0, 1.0))) <= 1e-8

    def test_amplitude_damping_population(self):
        gamma = 0.5
        lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |0><1|
        model = LindbladModel(np.zeros((2, 2)), (lower,), (gamma,))
        rho0 = np.diag([0.0, 1.0]).astype(complex)
        t = 1.4
        traj = lindblad_evolve(model, rho0, t, t / 32)
        assert traj.final[1, 1].real == pytest.approx(np.exp(-gamma * t), abs=1e-7)

    def test_trace_and_positivity_preserved(self):
        rng = np.random.default_rng(99)
        h = random_hermitian(3, rng)
        jumps = tuple(
            (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))) / 3.0
            for _ in range(2)
        )
        model = LindbladModel(h, jumps, (0.4, 0.2))
        rho0 = random_density(3, rng)
        traj = lindblad_evolve(model, rho0, 2.0, 0.25)
        for state in traj.states:
            assert np.trace(state).real == pytest.approx(1.0, abs=1e-8)
            assert np.linalg.eigvalsh(0.5 * (state + state.conj().T))[0] >= -1e-8

    def test_propagator_squaring_branch(self):
        # ||L dt||_1 = 2 gamma dt = 5, so the exponential is scaled and squared
        gamma, omega, dt = 5.0, 1.3, 0.5
        model = LindbladModel(omega * PAULI[3], (PAULI[3],), (gamma,))
        rho0 = density_from_state(np.array([1.0, 1.0]) / np.sqrt(2))
        traj = lindblad_evolve(model, rho0, 2.0, dt)
        assert np.allclose(traj.times, dt * np.arange(5), rtol=0, atol=1e-15)
        for t, state in zip(traj.times, traj.states):
            expected = np.array([[0.5, 0.5 * np.exp(-2.0 * (gamma + 1j * omega) * t)],
                                 [0.5 * np.exp(-2.0 * (gamma - 1j * omega) * t), 0.5]])
            assert np.max(np.abs(state - expected)) <= 1e-12

    def test_potential_matches_uniform_decay(self):
        # V = v I with trace-preserving jumps: tr rho(t) = exp(-2 v t / hbar)
        rng = np.random.default_rng(109)
        v, hbar = 0.35, 0.8
        model = LindbladModel(random_hermitian(3, rng), (random_hermitian(3, rng),), (0.4,),
                              hbar, V=v * np.eye(3))
        traj = lindblad_evolve(model, random_density(3, rng), 1.5, 0.1)
        traces = np.einsum("nii->n", traj.states).real
        assert np.max(np.abs(traces - np.exp(-2.0 * v * traj.times / hbar))) <= 1e-12

    def test_negative_rate_rejected(self):
        with pytest.raises(ContractViolation):
            LindbladModel(np.zeros((2, 2)), (PAULI[3],), (-0.1,))

    def test_sliced_master_first_order_convergence(self):
        rng = np.random.default_rng(100)
        for d in (2, 4):
            h = random_hermitian(d, rng)
            jump = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / (2 * d)
            model = LindbladModel(h, (jump,), (0.5,))
            rho0 = random_density(d, rng)
            exact = lindblad_evolve(model, rho0, 1.0, 1.0 / 16).final
            errors = []
            for n in (512, 1024):
                traj = sliced_master(model, rho0, 1.0 / n, n)
                errors.append(np.max(np.abs(traj.final - exact)))
            assert 1.8 <= errors[0] / errors[1] <= 2.2


class TestGibbs:
    def test_high_temperature_limit(self):
        h = np.diag([0.0, 1.0, 2.0])
        rho = gibbs_state(h, 1e6)
        assert np.max(np.abs(rho - np.eye(3) / 3.0)) <= 1e-5

    def test_two_level_ground_population(self):
        delta = 1.0
        rho = gibbs_state(np.diag([0.0, delta]), delta / 10.0)
        assert rho[0, 0].real == pytest.approx(1.0 / (1.0 + np.exp(-10.0)))

    def test_degenerate_ground_space(self):
        h = np.diag([0.0, 0.0, 5.0])
        rho = gibbs_state(h, 0.05)
        assert np.allclose(rho[:2, :2], 0.5 * np.eye(2), atol=1e-12)

    def test_low_temperature_convergence_monotone(self):
        h = np.diag([0.0, 1.0])
        ground = np.diag([1.0, 0.0])
        dists = [
            trace_distance(gibbs_state(h, 1.0 / beta), ground)
            for beta in (1.0, 2.0, 4.0, 8.0, 16.0)
        ]
        assert all(a > b for a, b in zip(dists, dists[1:]))

    def test_low_temperature_gap_bound(self):
        rng = np.random.default_rng(108)
        h = random_hermitian(3, rng)
        evals, evecs = np.linalg.eigh(h)
        gap = evals[1] - evals[0]
        ground = np.outer(evecs[:, 0], evecs[:, 0].conj())
        for kt in (gap / 5.0, gap / 10.0, gap / 20.0):
            dist = trace_distance(gibbs_state(h, kt), ground)
            assert dist <= 3.0 * np.exp(-gap / kt)

    def test_commutes_with_hamiltonian_and_valid(self):
        rng = np.random.default_rng(101)
        h = random_hermitian(4, rng)
        rho = gibbs_state(h, 0.7)
        assert np.max(np.abs(h @ rho - rho @ h)) <= 1e-12
        assert np.trace(rho).real == pytest.approx(1.0)
        assert validate_density(rho).ok

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ContractViolation):
            gibbs_state(np.diag([0.0, 1.0]), 0.0)


class TestRydbergRitz:
    def test_three_levels(self):
        lines = rydberg_ritz_lines(np.diag([0.0, 1.0, 3.0]))
        assert np.allclose(lines.omega, [1.0, 2.0, 3.0])
        assert np.allclose(lines.nu, np.array([1.0, 2.0, 3.0]) / (2 * np.pi))

    def test_constant_hamiltonian_empty(self):
        assert rydberg_ritz_lines(2.5 * np.eye(3)).omega.size == 0

    def test_deduplication(self):
        lines = rydberg_ritz_lines(np.diag([0.0, 1.0, 2.0]))
        assert np.allclose(lines.omega, [1.0, 2.0])

    def test_invariant_under_energy_shift(self):
        rng = np.random.default_rng(102)
        h = random_hermitian(4, rng)
        base = rydberg_ritz_lines(h).omega
        shifted = rydberg_ritz_lines(h + 3.7 * np.eye(4)).omega
        assert np.max(np.abs(base - shifted)) <= 1e-12

    def test_hbar_scaling(self):
        lines = rydberg_ritz_lines(np.diag([0.0, 2.0]), hbar=2.0)
        assert np.allclose(lines.omega, [1.0])


class TestLieProducts:
    def test_energy_conserved(self):
        rng = np.random.default_rng(103)
        h = random_hermitian(3, rng)
        rho = random_density(3, rng)
        assert abs(ehrenfest_derivative(rho, h, h)) <= 1e-12

    def test_pauli_algebra_example(self):
        # sigma3 lie sigma1 = -2 sigma2 at hbar = 1
        assert np.allclose(lie_product(PAULI[3], PAULI[1]), -2.0 * PAULI[2])
        rho = 0.5 * (np.eye(2) + PAULI[1])
        assert abs(ehrenfest_derivative(rho, PAULI[3], PAULI[1])) <= 1e-12

    def test_antisymmetry(self):
        rng = np.random.default_rng(104)
        a = random_hermitian(3, rng)
        assert np.allclose(lie_product(a, a), 0.0)
        b = random_hermitian(3, rng)
        assert np.allclose(lie_product(a, b), -lie_product(b, a))

    def test_jacobi_identity(self):
        rng = np.random.default_rng(105)
        a, b, c = (random_hermitian(3, rng) for _ in range(3))
        total = (
            lie_product(a, lie_product(b, c))
            + lie_product(b, lie_product(c, a))
            + lie_product(c, lie_product(a, b))
        )
        assert np.max(np.abs(total)) <= 1e-12

    def test_ehrenfest_matches_finite_difference(self):
        rng = np.random.default_rng(106)
        step = 1e-5
        for _ in range(100):
            d = int(rng.integers(2, 4))
            h = random_hermitian(d, rng)
            a = random_hermitian(d, rng)
            rho = random_density(d, rng)
            plus = quantum_value(von_neumann_evolve(h, rho, step), a).real
            minus = quantum_value(von_neumann_evolve(h, rho, -step), a).real
            fd = (plus - minus) / (2.0 * step)
            exact = ehrenfest_derivative(rho, h, a).real
            scale = max(abs(exact), 1.0)
            assert abs(fd - exact) <= 1e-6 * scale

    def test_poisson_bracket_of_quantum_values(self):
        rng = np.random.default_rng(107)
        a = random_hermitian(2, rng)
        b = random_hermitian(2, rng)
        rho = random_density(2, rng)
        assert poisson_bracket(a, b, rho) == pytest.approx(
            quantum_value(rho, lie_product(a, b))
        )
