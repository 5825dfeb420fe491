import numpy as np
import pytest

from qtomo import (
    PAULI,
    ContractViolation,
    Detector,
    ExperimentConfig,
    measured_quantity,
    projective_measure,
    q_uncertainty,
    robertson_check,
    response_probabilities,
    sample_events,
    statistical_vs_quantum,
    tetrahedron_measure,
)
from support import random_density, random_hermitian, random_measure


def _tetra_sigma3_detector():
    vs = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)
    return Detector(tetrahedron_measure(), 3.0 * vs[:, 2], allow_repeated_values=True)


class TestQUncertainty:
    def test_eigenstate_has_zero_spread(self):
        report = q_uncertainty(np.diag([1.0, 0.0]), PAULI[3])
        assert report.sigma == pytest.approx(0.0, abs=1e-12)

    def test_unbiased_sigma1(self):
        report = q_uncertainty(np.diag([1.0, 0.0]), PAULI[1])
        assert report.mean[0] == pytest.approx(0.0)
        assert report.sigma == pytest.approx(1.0)

    def test_scalar_multiple_of_identity(self):
        rng = np.random.default_rng(110)
        rho = random_density(3, rng)
        report = q_uncertainty(rho, 2.7 * np.eye(3))
        assert report.sigma == pytest.approx(0.0, abs=1e-12)

    def test_sigma_squared_is_covariance_trace(self):
        rng = np.random.default_rng(111)
        rho = random_density(3, rng)
        quantity = np.stack([random_hermitian(3, rng) for _ in range(3)])
        report = q_uncertainty(rho, quantity)
        assert report.sigma ** 2 == pytest.approx(np.trace(report.covariance).real)

    def test_unnormalized_state_rejected(self):
        with pytest.raises(ContractViolation):
            q_uncertainty(np.diag([1.0, 1.0]), PAULI[3])


class TestRobertson:
    def test_pauli_equality_case(self):
        report = robertson_check(np.diag([1.0, 0.0]), PAULI[1], PAULI[2])
        assert report.lhs == pytest.approx(1.0)
        assert report.rhs == pytest.approx(1.0)
        assert report.satisfied

    def test_commuting_operators(self):
        rng = np.random.default_rng(112)
        rho = random_density(2, rng)
        report = robertson_check(rho, PAULI[3], 2.0 * PAULI[3])
        assert report.rhs == pytest.approx(0.0, abs=1e-12)
        assert report.satisfied

    def test_maximally_mixed_slack(self):
        report = robertson_check(0.5 * np.eye(2), PAULI[1], PAULI[2])
        assert report.lhs == pytest.approx(1.0)
        assert report.rhs == pytest.approx(0.0, abs=1e-12)

    def test_random_triples_satisfied(self):
        rng = np.random.default_rng(113)
        for d in (2, 3, 4):
            for _ in range(200):
                report = robertson_check(
                    random_density(d, rng),
                    random_hermitian(d, rng),
                    random_hermitian(d, rng),
                )
                assert report.lhs >= report.rhs - 1e-10

    def test_non_hermitian_rejected(self):
        with pytest.raises(ContractViolation):
            robertson_check(0.5 * np.eye(2), np.array([[0, 1], [0, 0]]), PAULI[1])


class TestStatisticalVsQuantum:
    def test_projective_detector_zero_excess(self):
        det = Detector(projective_measure(np.eye(2)), [1.0, -1.0])
        rng = np.random.default_rng(114)
        for _ in range(20):
            report = statistical_vs_quantum(det, random_density(2, rng))
            assert abs(report.excess) <= 1e-10

    def test_tetrahedron_detector_positive_excess(self):
        report = statistical_vs_quantum(_tetra_sigma3_detector(), 0.5 * np.eye(2))
        assert np.allclose(measured_quantity(_tetra_sigma3_detector()), PAULI[3])
        assert report.excess > 0.1

    def test_single_element_detector_constant_outcome(self):
        from qtomo import QuantumMeasure

        det = Detector(QuantumMeasure([np.eye(2)]), [0.7])
        rng = np.random.default_rng(115)
        report = statistical_vs_quantum(det, random_density(2, rng))
        assert report.e_var == pytest.approx(0.0, abs=1e-12)
        assert report.sigma2 == pytest.approx(0.0, abs=1e-12)

    def test_excess_nonnegative_on_random_detectors(self):
        rng = np.random.default_rng(116)
        for d in (2, 3):
            for _ in range(100):
                n = int(rng.integers(2, 6))
                det = Detector(random_measure(d, n, rng), rng.normal(size=n))
                report = statistical_vs_quantum(det, random_density(d, rng))
                assert report.excess >= -1e-10

    def test_sample_variance_converges_to_e_var(self):
        det = _tetra_sigma3_detector()
        rng = np.random.default_rng(117)
        rho = random_density(2, rng)
        report = statistical_vs_quantum(det, rho)
        cfg = ExperimentConfig(23, 10**6, rho, det.measure)
        log, _ = sample_events(cfg)
        values = det.scale[log.labels - 1, 0].real
        a_bar = np.einsum(
            "k,k->", response_probabilities(det.measure, rho), det.scale[:, 0]
        ).real
        sample = np.mean((values - a_bar) ** 2)
        moments4 = np.mean((values - a_bar) ** 4)
        stderr = np.sqrt(max(moments4 - sample**2, 0.0) / len(values))
        assert abs(sample - report.e_var) <= 5 * stderr


class TestMeasurementUncertainty:
    def test_error_decomposition_identity(self):
        rng = np.random.default_rng(120)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            det = Detector(random_measure(2, n, rng), rng.normal(size=n))
            rho = random_density(2, rng)
            x = random_hermitian(2, rng)
            p = response_probabilities(det.measure, rho)
            a = measured_quantity(det)
            a_bar = np.trace(rho @ a).real
            x_bar = np.trace(rho @ x).real
            lhs = np.sum(p * np.abs(det.scale[:, 0] - x_bar) ** 2)
            rhs = np.sum(p * np.abs(det.scale[:, 0] - a_bar) ** 2) + abs(a_bar - x_bar) ** 2
            assert abs(lhs - rhs) <= 1e-12
