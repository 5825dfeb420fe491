import warnings

import numpy as np
import pytest
import scipy.linalg

from qtomo import (
    PAULI,
    ContractViolation,
    LindbladModel,
    density_from_state,
    evolution_operator,
    lie_product,
    lindblad_evolve,
    liouvillian,
    poisson_bracket,
    quantum_value,
    rydberg_ritz_lines,
    sliced_master,
    von_neumann_evolve,
)
from qtomo.dynamics import sliced_final
from support import random_complex, random_density, random_hermitian


def _kron_liouvillian(model):
    """Row-major generator as a sum of Kronecker products: a test-only oracle for liouvillian."""
    ident = np.eye(model.dim)
    h = model.H
    gen = (-1j / model.hbar) * (np.kron(h, ident) - np.kron(ident, h.T))
    if model.V is not None:
        gen = gen - (np.kron(model.V, ident) + np.kron(ident, model.V.T)) / model.hbar
    for g, l in zip(model.rates, model.jump_ops):
        ll = l.conj().T @ l
        gen = gen + g * (np.kron(l, l.conj()) - 0.5 * np.kron(ll, ident)
                         - 0.5 * np.kron(ident, ll.T))
    return gen


def _random_model(d, n_jumps, with_v, rng, hbar=1.0, scale=1.0):
    jumps = tuple(random_complex((d, d), rng) / d for _ in range(n_jumps))
    v = None
    if with_v:
        g = random_complex((d, d), rng)
        v = g @ g.conj().T / d
    return LindbladModel(scale * random_hermitian(d, rng), jumps,
                         tuple(rng.uniform(0.1, 1.0, n_jumps)), hbar, V=v)


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

    @pytest.mark.parametrize("with_v", [False, True])
    def test_the_matrix_power_is_the_final_slice(self, with_v):
        # repeated squaring rounds differently from n slices: agreement to 1e-12 per unit state
        rng = np.random.default_rng(93)
        for d, steps in ((2, 1), (3, 17), (4, 2000)):
            model = _random_model(d, 0, with_v, rng)
            rho = random_density(d, rng)
            final = sliced_final(model, rho, 1e-3, steps)
            assert np.max(np.abs(final - sliced_master(model, rho, 1e-3, steps).final)) <= 1e-12
        assert np.array_equal(sliced_final(model, rho, 1e-3, 0), rho)

    def test_the_matrix_power_refuses_jumps(self):
        model = LindbladModel(PAULI[1], (PAULI[3],), (0.2,))
        with pytest.raises(ContractViolation, match="without jumps"):
            sliced_final(model, np.diag([1.0, 0.0]), 0.1, 3)

    def test_invalid_potential_rejected(self):
        with pytest.raises(ContractViolation, match="PSD"):
            LindbladModel(np.zeros((2, 2)), V=-np.eye(2))
        with pytest.raises(ContractViolation, match="Hermitian"):
            LindbladModel(np.zeros((2, 2)), V=np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ContractViolation, match="shape"):
            LindbladModel(np.zeros((2, 2)), V=np.eye(1))
        with pytest.raises(ContractViolation, match="shape"):
            LindbladModel(np.zeros((2, 2)), (np.eye(3),), (0.1,))


class TestLindbladPropagator:
    @pytest.mark.parametrize("d", range(1, 7))
    @pytest.mark.parametrize("n_jumps", [0, 1, 2])
    @pytest.mark.parametrize("with_v", [False, True])
    def test_liouvillian_matches_the_kronecker_form(self, d, n_jumps, with_v):
        rng = np.random.default_rng(1000 * d + 10 * n_jumps + with_v)
        model = _random_model(d, n_jumps, with_v, rng, hbar=0.7)
        oracle = _kron_liouvillian(model)
        # rounding is relative to the terms, which cancel to 0 for d = 1 without V (L (x) conj(L)
        # = |L|^2 there): bound each term's 1-norm and sum
        scale = 2 * np.linalg.norm(model.H, 1) / model.hbar + sum(
            2 * g * np.linalg.norm(l, 1) ** 2 for g, l in zip(model.rates, model.jump_ops))
        if with_v:
            scale += 2 * np.linalg.norm(model.V, 1) / model.hbar
        assert np.max(np.abs(liouvillian(model) - oracle)) <= 1e-15 * scale

    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    @pytest.mark.parametrize("dt", [0.01, 0.4])
    def test_trajectory_matches_scipy_expm(self, d, dt):
        rng = np.random.default_rng(d)
        model = _random_model(d, 2, d == 4, rng, scale=2.0)
        rho0 = random_density(d, rng)
        step = scipy.linalg.expm(_kron_liouvillian(model) * dt)
        if dt == 0.4:
            assert np.linalg.norm(_kron_liouvillian(model) * dt, 1) > 0.5  # squaring branch
        traj = lindblad_evolve(model, rho0, 2.0, dt)
        expected = [rho0.reshape(-1)]
        for _ in range(len(traj) - 1):
            expected.append(step @ expected[-1])
        assert np.max(np.abs(traj.states - np.stack(expected).reshape(-1, d, d))) <= 1e-12

    def test_zero_generator_repeats_the_initial_state(self):
        # exp(0) is the identity, so every step repeats the state; after t = 0 the state has
        # passed once through the real coordinates and back, which rounds
        rho0 = random_density(3, np.random.default_rng(5))
        traj = lindblad_evolve(LindbladModel(np.zeros((3, 3))), rho0, 1.0, 0.1)
        assert len(traj) == 11
        assert np.array_equal(traj.states[0], rho0)
        assert np.array_equal(traj.states[1:], np.broadcast_to(traj.states[1], (10, 3, 3)))
        assert np.max(np.abs(traj.states[1] - rho0)) <= np.finfo(float).eps * np.max(np.abs(rho0))

    def test_state_that_is_not_hermitian(self):
        # the real and imaginary parts of the coordinates propagate alike
        rng = np.random.default_rng(7)
        model = _random_model(3, 2, True, rng)
        rho0 = random_complex((3, 3), rng)
        step = scipy.linalg.expm(_kron_liouvillian(model) * 0.1)
        traj = lindblad_evolve(model, rho0, 1.0, 0.1)
        expected = [rho0.reshape(-1)]
        for _ in range(10):
            expected.append(step @ expected[-1])
        assert np.max(np.abs(traj.states - np.stack(expected).reshape(-1, 3, 3))) <= 1e-12

    def test_no_step_returns_the_initial_state(self):
        rho0 = random_density(2, np.random.default_rng(6))
        traj = lindblad_evolve(LindbladModel(PAULI[1]), rho0, 0.0, 0.1)
        assert np.array_equal(traj.times, [0.0]) and np.array_equal(traj.states, rho0[None])


class TestVonNeumann:
    def test_times_array_stacks_the_per_time_states(self):
        rng = np.random.default_rng(95)
        h, rho = random_hermitian(5, rng), random_density(5, rng)
        times = 0.05 * np.arange(41)
        stacked = von_neumann_evolve(h, rho, times, 0.8)
        per_time = np.stack([von_neumann_evolve(h, rho, t, 0.8) for t in times])
        assert stacked.tobytes() == per_time.tobytes()
        assert evolution_operator(h, times[3], 0.8).tobytes() == evolution_operator(
            h, times, 0.8)[3].tobytes()

    @pytest.mark.parametrize("hbar", [-1.0, 0.0])
    def test_nonpositive_hbar_rejected(self, hbar):
        h, rho = np.diag([1.0, 0.0]), np.diag([0.5, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for call in (lambda: evolution_operator(h, 1.0, hbar),
                         lambda: von_neumann_evolve(h, rho, 1.0, hbar)):
                with pytest.raises(ContractViolation, match="hbar must be positive"):
                    call()

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
        out = evolution_operator(h, 1.7) @ psi0
        assert np.allclose(out, np.exp(-0.5j * 1.7) * psi0)

    def test_populations_invariant_for_diagonal_hamiltonian(self):
        h = np.diag([0.0, 1.0])
        psi0 = np.array([1.0, 1.0]) / np.sqrt(2)
        for t in (0.2, 0.9, 4.0):
            out = evolution_operator(h, t) @ psi0
            assert abs(out[0]) ** 2 == pytest.approx(0.5)
            assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_consistent_with_von_neumann(self):
        rng = np.random.default_rng(95)
        h = random_hermitian(3, rng)
        psi0 = rng.normal(size=3) + 1j * rng.normal(size=3)
        lhs = density_from_state(evolution_operator(h, 0.8) @ psi0)
        rhs = von_neumann_evolve(h, density_from_state(psi0), 0.8)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


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

    @pytest.mark.parametrize("hbar", [-1.0, 0.0])
    def test_nonpositive_hbar_rejected(self, hbar):
        # as in LindbladModel: omega = |E_j - E_k| / hbar needs hbar > 0
        with pytest.raises(ContractViolation, match="hbar must be positive"):
            rydberg_ritz_lines(np.diag([0.0, 1.0]), hbar=hbar)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_finite_hamiltonian_has_one_line(self):
        lines = rydberg_ritz_lines(np.diag([1e308, 0.0]))
        assert lines.omega.tolist() == [1e308] and lines.nu.tolist() == [1e308 / (2 * np.pi)]


class TestLieProducts:
    def test_energy_conserved(self):
        rng = np.random.default_rng(103)
        h = random_hermitian(3, rng)
        rho = random_density(3, rng)
        assert abs(poisson_bracket(h, h, rho)) <= 1e-12

    def test_pauli_algebra_example(self):
        # sigma3 lie sigma1 = -2 sigma2 at hbar = 1
        assert np.allclose(lie_product(PAULI[3], PAULI[1]), -2.0 * PAULI[2])
        rho = 0.5 * (np.eye(2) + PAULI[1])
        assert abs(poisson_bracket(PAULI[3], PAULI[1], rho)) <= 1e-12

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
            exact = poisson_bracket(h, a, rho).real
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


# Each evolution of a qubit model given a qutrit initial state, a 3x3 density matrix.
_WRONG_DIMENSION = {
    "sliced_master, 0 steps": lambda h, rho: sliced_master(LindbladModel(h), rho, 0.1, 0),
    "sliced_master, 5 steps": lambda h, rho: sliced_master(LindbladModel(h), rho, 0.1, 5),
    "lindblad_evolve": lambda h, rho: lindblad_evolve(LindbladModel(h), rho, 0.5, 0.1),
    "von_neumann_evolve": lambda h, rho: von_neumann_evolve(h, rho, 0.5),
    "von_neumann_evolve, times": lambda h, rho: von_neumann_evolve(h, rho, [0.0, 0.5]),
}


@pytest.mark.parametrize("evolve", _WRONG_DIMENSION.values(), ids=_WRONG_DIMENSION)
def test_initial_state_of_another_dimension_is_refused(evolve):
    with pytest.raises(ContractViolation, match="initial state does not match the model dimension"):
        evolve(np.diag([1.0, 0.0]), np.eye(3) / 3)
