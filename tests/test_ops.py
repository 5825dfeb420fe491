import numpy as np
import pytest

from qtomo import (
    PAULI,
    ContractViolation,
    density_from_state,
    expand_hermitian,
    hermitian_basis,
    normalize,
    quantum_value,
    trace_distance,
    validate_density,
)
from qtomo.ops import numerical_rank, real_traces, square_stack
from support import random_density, random_hermitian


class TestQuantumValue:
    def test_traceless_against_maximally_mixed(self):
        assert quantum_value(0.5 * np.eye(2), PAULI[3]) == pytest.approx(0.0)

    def test_eigenstate(self):
        assert quantum_value(np.diag([1.0, 0.0]), PAULI[3]) == pytest.approx(1.0)

    def test_stokes_coefficients_read_off(self):
        # rho = (sigma0 + 0.6 sigma1 + 0.8 sigma3)/2 has <sigma_1> = 0.6
        rho = 0.5 * (PAULI[0] + 0.6 * PAULI[1] + 0.8 * PAULI[3])
        assert quantum_value(rho, PAULI[1]) == pytest.approx(0.6)
        assert quantum_value(rho, PAULI[3]) == pytest.approx(0.8)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolation):
            quantum_value(np.eye(2), np.eye(3))

    def test_imaginary_part_bounded_for_hermitian_inputs(self):
        rng = np.random.default_rng(10)
        for d in (2, 3, 4):
            for _ in range(50):
                rho = random_density(d, rng)
                x = random_hermitian(d, rng)
                bound = 1e-12 * np.linalg.norm(rho) * np.linalg.norm(x)
                assert abs(quantum_value(rho, x).imag) <= max(bound, 1e-15)

    def test_additive_under_source_combination(self):
        rng = np.random.default_rng(11)
        a = random_density(3, rng, trace=0.7)
        b = random_density(3, rng, trace=2.1)
        x = random_hermitian(3, rng)
        assert quantum_value(a + b, x) == pytest.approx(
            quantum_value(a, x) + quantum_value(b, x)
        )

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(12)
        rho = random_density(3, rng)
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert quantum_value(rho, x.conj().T) == pytest.approx(
            np.conj(quantum_value(rho, x))
        )


class TestHermitianBasis:
    def test_d1(self):
        basis = hermitian_basis(1)
        assert len(basis) == 1
        assert np.allclose(basis[0], [[1.0]])

    def test_d2_is_pauli_set(self):
        basis = hermitian_basis(2)
        assert len(basis) == 4
        for sigma in PAULI:
            assert any(np.allclose(b, sigma) for b in basis)

    def test_d3_gram_rank_nine(self):
        basis = hermitian_basis(3)
        assert len(basis) == 9
        gram = np.array(
            [[np.trace(a @ b).real for b in basis] for a in basis]
        )
        assert np.linalg.matrix_rank(gram) == 9

    def test_all_hermitian(self):
        for b in hermitian_basis(4):
            assert np.allclose(b, b.conj().T)

    def test_invalid_dimension(self):
        with pytest.raises(ContractViolation):
            hermitian_basis(0)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 7])
    def test_matches_double_loop_construction(self, d):
        loop = [np.eye(d, dtype=complex)]
        for j in range(d - 1):
            m = np.zeros((d, d), dtype=complex)
            m[j, j], m[j + 1, j + 1] = 1.0, -1.0
            loop.append(m)
        sym, antisym = [], []
        for j in range(d):
            for k in range(j + 1, d):
                s = np.zeros((d, d), dtype=complex)
                s[j, k] = s[k, j] = 1.0
                sym.append(s)
                a = np.zeros((d, d), dtype=complex)
                a[j, k], a[k, j] = -1j, 1j
                antisym.append(a)
        assert np.array_equal(hermitian_basis(d), np.stack(loop + sym + antisym))

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_expand_and_resum_reproduces(self, d):
        rng = np.random.default_rng(13)
        basis = hermitian_basis(d)
        h = random_hermitian(d, rng)
        coeff = expand_hermitian(h, basis)
        resummed = np.tensordot(coeff, np.stack(basis), axes=(0, 0))
        assert np.max(np.abs(resummed - h)) <= 1e-10 * np.max(np.abs(h))


class TestValidateDensity:
    def test_dark_state_ok(self):
        report = validate_density(np.zeros((2, 2)))
        assert report.ok and report.trace == 0.0

    def test_maximally_mixed_ok(self):
        report = validate_density(np.diag([0.5, 0.5]))
        assert report.ok and report.trace == pytest.approx(1.0)

    def test_constructed_violation(self):
        report = validate_density(np.diag([1.0, -0.1]))
        assert not report.ok
        assert report.min_eigenvalue == pytest.approx(-0.1)

    def test_non_square_rejected(self):
        with pytest.raises(ContractViolation):
            validate_density(np.ones((2, 3)))

    def test_non_hermitian_flagged(self):
        report = validate_density(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert not report.ok
        assert report.hermitian_defect == pytest.approx(1.0)


class TestDensityFromState:
    def test_basis_state(self):
        assert np.allclose(density_from_state([1.0, 0.0]), np.diag([1.0, 0.0]))

    def test_plus_state(self):
        rho = density_from_state(np.array([1.0, 1.0]) / np.sqrt(2))
        assert np.allclose(rho, 0.5 * np.ones((2, 2)))

    def test_circular_state(self):
        rho = density_from_state(np.array([1.0, 1j]) / np.sqrt(2))
        expected = 0.5 * np.array([[1.0, -1j], [1j, 1.0]])
        assert np.allclose(rho, expected)

    def test_always_valid_density(self):
        rng = np.random.default_rng(14)
        for d in (2, 3, 7):
            psi = rng.normal(size=d) + 1j * rng.normal(size=d)
            report = validate_density(density_from_state(psi), 1e-12, 1e-12)
            assert report.ok

    def test_trace_is_squared_norm(self):
        psi = np.array([1.0, 2.0, 2.0])
        assert np.trace(density_from_state(psi)).real == pytest.approx(9.0)

    def test_rank_one(self):
        psi = np.array([0.3, 1j, -2.0])
        evals = np.linalg.eigvalsh(density_from_state(psi))
        assert np.sum(evals > 1e-12) == 1


class TestNormalize:
    def test_divides_by_trace(self):
        assert np.allclose(normalize(np.diag([2.0, 2.0])), np.diag([0.5, 0.5]))

    def test_dark_state_rejected(self):
        with pytest.raises(ContractViolation):
            normalize(np.zeros((2, 2)))


def test_trace_distance_pure_orthogonal():
    assert trace_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(1.0)


class TestSquareStack:
    def test_stacks_matrices_of_one_size(self):
        stack = square_stack([np.eye(2), [[0, 1], [1, 0]]], "probe state")
        assert stack.shape == (2, 2, 2) and stack.dtype == complex
        assert np.array_equal(stack[1], PAULI[1])

    @pytest.mark.parametrize("matrices, message", [
        ([], "need at least one probe state"),
        ([np.eye(2), np.ones((2, 3))], r"probe state 1 must be square, got shape \(2, 3\)"),
        ([np.full((2, 2), np.nan)], "probe state 0 has non-finite entries"),
        ([np.eye(2), np.eye(2), np.eye(3), np.eye(1)], "probe state 2 is 3x3, expected 2x2"),
    ])
    def test_refusal_names_the_first_offender(self, matrices, message):
        with pytest.raises(ContractViolation, match=message):
            square_stack(matrices, "probe state")


class TestDesignRank:
    def test_real_traces_against_einsum(self):
        rng = np.random.default_rng(3)
        a = np.stack([random_hermitian(3, rng) for _ in range(5)])
        b = hermitian_basis(3)
        assert np.allclose(real_traces(a, b), np.einsum("kij,aji->ka", a, b).real, atol=1e-14)

    def test_rank_counts_singular_values_above_the_relative_cut(self):
        assert numerical_rank(np.array([2.0, 1.0, 2.1e-10, 1.9e-10])) == 3
        assert numerical_rank(np.array([1e-20, 1e-25])) == 2  # relative, not absolute
        assert numerical_rank(np.array([0.0, 0.0])) == 0
        assert numerical_rank(np.array([])) == 0
