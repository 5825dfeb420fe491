import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from qtomo import (
    PAULI,
    ContractViolation,
    density_from_state,
    hermitian_basis,
    quantum_value,
    trace_distance,
    validate_density,
)
from qtomo.ops import (hermitian_defect, hermitian_part, min_eigenvalue, numerical_rank,
                       real_traces, square_stack)
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
        # I, sigma_3, sigma_1, sigma_2 over sqrt(2)
        expected = np.stack([PAULI[0], PAULI[3], PAULI[1], PAULI[2]]) / np.sqrt(2.0)
        assert np.max(np.abs(hermitian_basis(2) - expected)) <= 1e-15

    @pytest.mark.parametrize("d", range(1, 8))
    def test_orthonormal(self, d):
        basis = hermitian_basis(d)
        gram = np.einsum("aij,bji->ab", basis, basis)
        assert np.max(np.abs(gram - np.eye(d * d))) <= 1e-15

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
        # the generalised Gell-Mann matrices (Bertlmann & Krammer 2008), each over sqrt(2),
        # after I / sqrt(d)
        loop = [np.eye(d, dtype=complex) / np.sqrt(d)]
        for l in range(1, d):
            m = np.zeros((d, d), dtype=complex)
            for j in range(l):
                m[j, j] = 1.0
            m[l, l] = -l
            loop.append(np.sqrt(2.0 / (l * (l + 1))) * m / np.sqrt(2.0))
        sym, antisym = [], []
        for j in range(d):
            for k in range(j + 1, d):
                s = np.zeros((d, d), dtype=complex)
                s[j, k] = s[k, j] = 1.0
                sym.append(s / np.sqrt(2.0))
                a = np.zeros((d, d), dtype=complex)
                a[j, k], a[k, j] = -1j, 1j
                antisym.append(a / np.sqrt(2.0))
        assert np.max(np.abs(hermitian_basis(d) - np.stack(loop + sym + antisym))) <= 1e-15

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_expand_and_resum_reproduces(self, d):
        rng = np.random.default_rng(13)
        h = random_hermitian(d, rng)
        # the coefficients Re tr(h B_a) by which every design takes an operator (ops._design)
        coeff = real_traces(h[None], hermitian_basis(d))[0]
        assert coeff.dtype == float and coeff.shape == (d * d,)
        resummed = np.tensordot(coeff, hermitian_basis(d), axes=(0, 0))
        assert np.max(np.abs(resummed - h)) <= 1e-14 * np.max(np.abs(h))
        # and back: the coefficients of the resummed matrix are the ones it was summed from
        back = real_traces(resummed[None], hermitian_basis(d))[0]
        assert np.max(np.abs(back - coeff)) <= 1e-14 * np.max(np.abs(coeff))


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


def test_trace_distance_pure_orthogonal():
    assert trace_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_trace_distance_of_a_huge_finite_difference():
    # the halved sum of diag(1e308, 0) and its adjoint overflowed to a nan distance
    assert trace_distance(np.diag([1e308, 0.0]), np.zeros((2, 2))) == 5e307


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_trace_distance_of_opposite_huge_matrices():
    # the difference 2e308 overflows; half of it does not
    assert trace_distance(np.diag([1e308, 0.0]), np.diag([-1e308, 0.0])) == 1e308


def _stacks(elements):
    return st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
        lambda shape: hnp.arrays(complex, (shape[0], shape[1], shape[1]), elements=elements))


# real and imaginary parts 0 or of magnitude in [2^-1021, 8e307], either sign: halving each
# part is exact, and no sum of two of them overflows
_parts = (st.just(0.0) | st.floats(2.0 ** -1021, 8e307)).flatmap(lambda x: st.sampled_from([x, -x]))


class TestHermitianPartRule:
    @settings(max_examples=200, deadline=None)
    @given(_stacks(st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)))
    def test_a_stack_gives_each_matrix_its_own_result(self, stack):
        defects, lows = hermitian_defect(stack), min_eigenvalue(stack)
        assert defects.shape == lows.shape == (len(stack),)
        for i, m in enumerate(stack):
            one_defect, one_low = hermitian_defect(m), min_eigenvalue(m)
            assert type(one_defect) is float and type(one_low) is float
            assert np.float64(one_defect).tobytes() == defects[i].tobytes()
            assert np.float64(one_low).tobytes() == lows[i].tobytes()

    @settings(max_examples=200, deadline=None)
    @given(_stacks(st.builds(complex, _parts, _parts)))
    def test_halving_first_gives_the_halved_sum(self, stack):
        # the same numbers; the sign of a zero may differ
        for m in stack:
            assert np.array_equal(hermitian_part(m), 0.5 * (m + m.conj().T))
        assert np.array_equal(hermitian_part(stack), 0.5 * (stack + stack.conj().swapaxes(1, 2)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_finite_entries(self):
        a = np.array([[1e308, 1e308j], [-1e308j, -1e308]])
        assert np.array_equal(hermitian_part(a), a)
        assert min_eigenvalue(a) == pytest.approx(-np.sqrt(2.0) * 1e308, rel=1e-15)
        # the defect 2e308 is beyond the float range
        assert hermitian_defect(np.array([[0.0, 1e308], [-1e308, 0.0]])) == np.inf

    def test_min_eigenvalue_refuses_what_is_not_a_square_matrix_or_stack(self):
        for bad in (np.ones(3), np.ones((2, 3)), np.ones((2, 2, 3))):
            with pytest.raises(ContractViolation, match="must be square"):
                min_eigenvalue(bad)
        with pytest.raises(ContractViolation, match="non-finite"):
            min_eigenvalue(np.full((2, 2, 2), np.nan))


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


def _checked_records():
    """One of each record that checks its fields, on the _Frozen base."""
    import qtomo

    measure = qtomo.pauli_six_measure()
    rho = np.diag([1.0, 0.0])
    log, _ = qtomo.sample_events(qtomo.ExperimentConfig(1, 20, rho, measure))
    return [qtomo.Detector(measure, np.arange(1.0, 7.0)),
            qtomo.ExperimentConfig(1, 20, rho, measure), log,
            qtomo.Instrument(((np.diag([1.0, 0.0]),), (np.diag([0.0, 1.0]),))),
            qtomo.LindbladModel(qtomo.PAULI[1], (np.diag([0.0, 1.0]),), (0.5,)),
            qtomo.Trajectory(np.zeros(1), rho[None]), qtomo.Leaf(0.5 * np.eye(2))]


class TestCheckedRecords:
    def test_fields_are_immutable(self):
        for record in _checked_records():
            name = record.__slots__[0]
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(record, name, None)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(record, name)

    def test_copy_and_pickle_rebuild_the_record(self):
        import copy
        import pickle

        def same(a, b):
            if isinstance(a, tuple):
                return len(a) == len(b) and all(map(same, a, b))
            if hasattr(a, "elements"):  # a QuantumMeasure
                a, b = a.elements, b.elements
            return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b

        for record in _checked_records():
            for twin in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
                assert type(twin) is type(record)
                assert all(same(getattr(twin, n), getattr(record, n)) for n in record.__slots__)
