import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import quad

from qtomo import (
    PAULI,
    ContractViolation,
    Detector,
    QuantumMeasure,
    coherent_partition_measure,
    density_from_state,
    informational_completeness,
    is_projective,
    measured_quantity,
    pauli_six_measure,
    projective_measure,
    quantum_value,
    response_probabilities,
    statistical_expectation,
    tetrahedron_measure,
    validate_measure,
)
from support import random_density, random_measure


class TestValidateMeasure:
    def test_single_identity_element(self):
        assert validate_measure(QuantumMeasure([np.eye(2)])).ok

    def test_projective_pair(self):
        m = QuantumMeasure([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        assert validate_measure(m).ok

    def test_sum_violation(self):
        m = QuantumMeasure([0.6 * np.eye(2), 0.6 * np.eye(2)])
        report = validate_measure(m)
        assert not report.ok
        assert report.sum_defect == pytest.approx(0.2)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolation):
            QuantumMeasure([np.eye(2), np.eye(3)])

    def test_negative_element_flagged(self):
        m = QuantumMeasure([np.diag([1.2, 1.0]), np.diag([-0.2, 0.0])])
        report = validate_measure(m)
        assert not report.ok
        assert report.min_eigenvalues.min() == pytest.approx(-0.2)


class TestResponseProbabilities:
    def test_diagonal(self):
        m = projective_measure(np.eye(2))
        p = response_probabilities(m, np.diag([0.3, 0.7]))
        assert np.allclose(p, [0.3, 0.7])

    def test_squared_amplitude_form(self):
        # perfect polarizer element: response |phi* psi|^2 = 0.5
        phi = np.array([1.0, 1.0]) / np.sqrt(2)
        proj = np.outer(phi, phi.conj())
        m = QuantumMeasure([proj, np.eye(2) - proj])
        rho = density_from_state(np.array([1.0, 0.0]))
        p = response_probabilities(m, rho)
        assert p[0] == pytest.approx(abs(phi.conj() @ np.array([1.0, 0.0])) ** 2)
        assert p[0] == pytest.approx(0.5)

    def test_dark_state(self):
        p = response_probabilities(pauli_six_measure(), np.zeros((2, 2)))
        assert np.allclose(p, 0.0)

    def test_linearity_in_state(self):
        rng = np.random.default_rng(20)
        m = random_measure(3, 4, rng)
        r1 = random_density(3, rng)
        r2 = random_density(3, rng)
        a, b = 0.3, 1.7
        lhs = response_probabilities(m, a * r1 + b * r2)
        rhs = a * response_probabilities(m, r1) + b * response_probabilities(m, r2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_sum_rule_matches_intensity(self):
        rng = np.random.default_rng(21)
        for d in (2, 3, 4):
            m = random_measure(d, 5, rng)
            rho = random_density(d, rng, trace=1.8)
            p = response_probabilities(m, rho)
            assert abs(p.sum() - 1.8) <= 1e-12


class TestMeasuredQuantity:
    def test_plus_minus_scale_gives_sigma3(self):
        det = Detector(projective_measure(np.eye(2)), [1.0, -1.0])
        assert np.allclose(measured_quantity(det), PAULI[3])

    def test_constant_scale_gives_identity(self):
        det = Detector(tetrahedron_measure(), [1.0, 1.0, 1.0, 1.0],
                       allow_repeated_values=True)
        assert np.allclose(measured_quantity(det), np.eye(2))

    def test_zero_scale_gives_zero(self):
        det = Detector(projective_measure(np.eye(2)), [0.0, 0.0],
                       allow_repeated_values=True)
        assert np.allclose(measured_quantity(det), 0.0)

    def test_norm_bound(self):
        rng = np.random.default_rng(22)
        m = random_measure(2, 4, rng)
        scale = rng.normal(size=4)
        det = Detector(m, scale)
        a = measured_quantity(det)
        assert np.linalg.norm(a, 2) <= np.sum(np.abs(scale)) + 1e-12

    def test_vector_scale_components(self):
        det = Detector(projective_measure(np.eye(2)),
                       np.array([[1.0, 2.0], [-1.0, 0.0]]))
        a = measured_quantity(det)
        assert a.shape == (2, 2, 2)
        assert np.allclose(a[0], PAULI[3])

    def test_real_scale_gives_hermitian_quantity(self):
        rng = np.random.default_rng(26)
        det = Detector(random_measure(2, 5, rng), rng.normal(size=5))
        a = measured_quantity(det)
        assert np.max(np.abs(a - a.conj().T)) <= 1e-12

    def test_scale_perturbation_along_null_space_fixes_quantity(self):
        # six elements for d = 2: the decomposition of A is not unique
        m = pauli_six_measure()
        design = np.stack([p.reshape(-1) for p in m.elements]).T
        _, _, vh = np.linalg.svd(design)
        null = vh[-1].conj()
        assert np.max(np.abs(design @ null)) <= 1e-12
        base = np.arange(1.0, 7.0)
        det0 = Detector(m, base)
        det1 = Detector(m, base + 0.37 * null.real)
        assert np.max(np.abs(measured_quantity(det0) - measured_quantity(det1))) <= 1e-12


class TestStatisticalExpectation:
    def test_total_probability(self):
        rng = np.random.default_rng(23)
        det = Detector(random_measure(2, 3, rng), [1.0, 2.0, 3.0])
        rho = random_density(2, rng)
        assert statistical_expectation(det, rho, lambda a: 1.0) == pytest.approx(1.0)

    def test_projective_sigma3_mean(self):
        det = Detector(projective_measure(np.eye(2)), [1.0, -1.0])
        value = statistical_expectation(det, np.diag([0.3, 0.7]))
        assert value == pytest.approx(-0.4)

    def test_unit_modulus_scale(self):
        det = Detector(projective_measure(np.eye(2)), [1.0, -1.0])
        rng = np.random.default_rng(24)
        rho = random_density(2, rng)
        assert statistical_expectation(det, rho, lambda a: abs(a) ** 2) == pytest.approx(1.0)

    def test_born_rule_in_expectation_form(self):
        rng = np.random.default_rng(25)
        m = random_measure(2, 4, rng)
        det = Detector(m, rng.normal(size=4))
        rho = random_density(2, rng)
        mean = statistical_expectation(det, rho)
        assert mean == pytest.approx(quantum_value(rho, measured_quantity(det)))

    def test_unnormalized_state_rejected_naming_trace(self):
        det = Detector(projective_measure(np.eye(2)), [1.0, -1.0])
        with pytest.raises(ContractViolation, match="2.0"):
            statistical_expectation(det, np.diag([1.0, 1.0]))


class TestProjectivity:
    def test_projective_pair(self):
        ok, defect = is_projective(projective_measure(np.eye(2)))
        assert ok and defect <= 1e-15

    def test_tetrahedron_not_projective(self):
        ok, defect = is_projective(tetrahedron_measure())
        assert not ok and defect > 0.1

    def test_single_identity(self):
        ok, _ = is_projective(QuantumMeasure([np.eye(3)]))
        assert ok


class TestInformationalCompleteness:
    def test_projective_pair_incomplete(self):
        report = informational_completeness(projective_measure(np.eye(2)))
        assert report.rank == 2 and not report.complete

    def test_pauli_six_complete_not_minimal(self):
        report = informational_completeness(pauli_six_measure())
        assert report.rank == 4 and report.complete and not report.minimal

    def test_tetrahedron_minimal(self):
        report = informational_completeness(tetrahedron_measure())
        assert report.rank == 4 and report.complete and report.minimal


class TestDetectorScale:
    def test_repeated_values_rejected_by_default(self):
        with pytest.raises(ContractViolation):
            Detector(projective_measure(np.eye(2)), [1.0, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(ContractViolation):
            Detector(projective_measure(np.eye(2)), [1.0, 2.0, 3.0])

    def test_first_coinciding_pair_is_named(self):
        # (1, 4) and (0, 5) both coincide; the pair loop reaches (0, 5) first
        with pytest.raises(ContractViolation, match="scale values 0 and 5 coincide"):
            Detector(pauli_six_measure(), [5.0, 1.0, 2.0, 3.0, 1.0, 5.0])
        with pytest.raises(ContractViolation, match="scale values 0 and 1 coincide"):
            Detector(projective_measure(np.eye(2)), [0.0, -0.0])

    def test_nan_values_never_coincide(self):
        scale = [[np.nan, 1.0], [np.nan, 1.0], [2.0, 1.0], [3.0, 1.0]]
        assert Detector(tetrahedron_measure(), scale).scale.shape == (4, 2)

    @settings(max_examples=50, deadline=None)
    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 3)),
                      elements=st.sampled_from([0.0, -0.0, 1.0, 2.0, np.nan])))
    def test_rejected_exactly_when_a_pair_is_equal(self, scale):
        k = scale.shape[0]
        pairs = [(j, i) for j in range(k) for i in range(j + 1, k)
                 if np.array_equal(scale[j], scale[i])]
        measure = QuantumMeasure([np.eye(1) / k] * k)
        if pairs:
            with pytest.raises(ContractViolation) as info:
                Detector(measure, scale)
            assert f"scale values {pairs[0][0]} and {pairs[0][1]} coincide" in str(info.value)
        else:
            assert Detector(measure, scale).scale.shape == scale.shape


class TestCoherentPartitionMeasure:
    def test_single_cell_matches_radial_quadrature_oracle(self):
        radius = 1.3
        m = coherent_partition_measure(0, [lambda a: 1.0], radius,
                                       n_radial=400, n_angular=16)
        # oracle: (1/pi) integral over the disc of |<0|alpha>|^2
        oracle, _ = quad(lambda r: 2.0 * r * np.exp(-r * r), 0.0, radius)
        assert oracle == pytest.approx(1.0 - np.exp(-radius ** 2), abs=1e-12)
        assert m.elements[0][0, 0].real == pytest.approx(oracle, abs=1e-4)

    def test_sums_to_identity_exactly(self):
        cells = [lambda a: 0.25, lambda a: 0.75]
        m = coherent_partition_measure(2, cells, 1.5, n_radial=50, n_angular=24)
        assert m.sum_defect() == 0.0
        assert validate_measure(m).ok

    def test_half_disc_symmetry(self):
        cells = [
            lambda a: 1.0 if np.angle(a) >= 0 else 0.0,
            lambda a: 1.0 if np.angle(a) < 0 else 0.0,
        ]
        m = coherent_partition_measure(2, cells, 2.0, n_radial=120, n_angular=64)
        assert np.allclose(np.diagonal(m.elements[0]), np.diagonal(m.elements[1]))

    def test_truncation_insufficient_error_names_eigenvalue(self):
        with pytest.raises(ContractViolation, match="truncation insufficient"):
            coherent_partition_measure(0, [lambda a: 1.0], 2.0,
                                       n_radial=1, n_angular=8)

    def test_cells_must_sum_to_one(self):
        with pytest.raises(ContractViolation, match="sum to one"):
            coherent_partition_measure(0, [lambda a: 0.5], 1.0)
