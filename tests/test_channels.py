import numpy as np
import pytest

from qtomo import (
    PAULI,
    ContractViolation,
    Instrument,
    apply_superop,
    choi_rank,
    choi_transform,
    classify_filter,
    hermitian_basis,
    is_completely_positive,
    kraus_apply,
    kraus_from_choi,
    kraus_from_superop,
    pi_operator,
    quantum_value,
    superop_from_action,
    superop_from_kraus,
    validate_density,
)
from qtomo.ops import TOL_HERM, hermitian_defect
from support import random_complex, random_density, random_kraus, random_unitary


class TestApply:
    def test_identity_map(self):
        e = superop_from_kraus([np.eye(2)])
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(apply_superop(e, x), x)

    def test_sigma1_conjugation_flips_populations(self):
        e = superop_from_kraus([PAULI[1]])
        assert np.allclose(apply_superop(e, np.diag([1.0, 0.0])), np.diag([0.0, 1.0]))

    def test_zero_map(self):
        e = np.zeros((4, 4))
        assert np.allclose(apply_superop(e, np.eye(2)), 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolation):
            apply_superop(np.zeros((4, 4)), np.eye(3))


class TestChoiTransform:
    def test_identity_conjugation_maps_to_trace(self):
        # E(X) = X  =>  choi-transformed map sends X to tr(X) * identity
        e = superop_from_kraus([np.eye(2)])
        ehat = choi_transform(e)
        rng = np.random.default_rng(40)
        x = random_complex((2, 2), rng)
        assert np.allclose(apply_superop(ehat, x), np.trace(x) * np.eye(2))

    def test_sigma1_conjugation(self):
        e = superop_from_kraus([PAULI[1]])
        ehat = choi_transform(e)
        rng = np.random.default_rng(41)
        x = random_complex((2, 2), rng)
        assert np.allclose(apply_superop(ehat, x), PAULI[1] * np.trace(PAULI[1] @ x))

    def test_zero(self):
        assert np.allclose(choi_transform(np.zeros((9, 9))), 0.0)

    def test_involution_exact(self):
        rng = np.random.default_rng(42)
        e = random_complex((9, 9), rng)
        assert np.array_equal(choi_transform(choi_transform(e)), e)

    def test_linearity_exact(self):
        rng = np.random.default_rng(43)
        e1 = random_complex((4, 4), rng)
        e2 = random_complex((4, 4), rng)
        assert np.array_equal(
            choi_transform(2.0 * e1 + 0.5 * e2),
            2.0 * choi_transform(e1) + 0.5 * choi_transform(e2),
        )

    def test_basis_formula(self):
        # the transformed map agrees with sum_jk E(e_j e_k*) X e_k e_j*
        rng = np.random.default_rng(44)
        d = 3
        e = superop_from_kraus(random_kraus(d, 2, rng))
        x = random_complex((d, d), rng)
        total = np.zeros((d, d), dtype=complex)
        for j in range(d):
            for k in range(d):
                ejk = np.zeros((d, d), dtype=complex)
                ejk[j, k] = 1.0
                ekj = np.zeros((d, d), dtype=complex)
                ekj[k, j] = 1.0
                total += apply_superop(e, ejk) @ x @ ekj
        assert np.max(np.abs(apply_superop(choi_transform(e), x) - total)) <= 1e-12


class TestCompletePositivity:
    def test_identity_map_cp(self):
        assert is_completely_positive(superop_from_kraus([np.eye(2)])).cp

    def test_transpose_not_cp(self):
        report = is_completely_positive(superop_from_action(lambda x: x.T, 2))
        assert not report.cp
        assert report.min_choi_eigenvalue == pytest.approx(-1.0)

    def test_kraus_built_maps_cp(self):
        rng = np.random.default_rng(45)
        for d in (2, 3):
            e = superop_from_kraus(random_kraus(d, 3, rng))
            assert is_completely_positive(e).cp

    def test_hermiticity_preserving_flag(self):
        rng = np.random.default_rng(46)
        e = superop_from_kraus(random_kraus(2, 2, rng))
        # E(X*) = E(X)* exactly when the Choi matrix is Hermitian
        assert hermitian_defect(choi_transform(e)) <= TOL_HERM
        # left multiplication by sigma1 is linear but not hermiticity preserving
        left = superop_from_action(lambda x: PAULI[1] @ x, 2)
        assert hermitian_defect(choi_transform(left)) > TOL_HERM


class TestKrausExtraction:
    def test_identity_channel_gives_identity_operator(self):
        e = superop_from_kraus([np.eye(2)])
        ops = kraus_from_choi(choi_transform(e))
        assert len(ops) == 1
        assert np.allclose(ops[0], np.eye(2))

    def test_depolarizing_action_reproduced(self):
        d = 2
        e = superop_from_action(lambda x: np.trace(x) * np.eye(d) / d, d)
        ops = kraus_from_superop(e)
        assert len(ops) == 4
        for b in hermitian_basis(d):
            assert np.allclose(kraus_apply(ops, b), np.trace(b) * np.eye(d) / d)

    def test_zero_choi_rejected(self):
        with pytest.raises(ContractViolation, match="zero"):
            kraus_from_choi(np.zeros((4, 4)))

    def test_indefinite_choi_rejected(self):
        with pytest.raises(ContractViolation, match="not completely positive"):
            kraus_from_choi(choi_transform(superop_from_action(lambda x: x.T, 2)))

    def test_operator_count_equals_choi_rank(self):
        rng = np.random.default_rng(47)
        for n in (1, 2, 3):
            e = superop_from_kraus(random_kraus(3, n, rng))
            assert len(kraus_from_superop(e)) == n == choi_rank(e)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_round_trip_reproduces_action_on_basis(self, d):
        rng = np.random.default_rng(48)
        for _ in range(30):
            e = superop_from_kraus(random_kraus(d, rng.integers(1, 4), rng))
            e2 = superop_from_kraus(kraus_from_superop(e))
            assert np.max(np.abs(e2 - e)) <= 1e-10


class TestSuperopFromKraus:
    def test_single_identity(self):
        assert np.allclose(superop_from_kraus([np.eye(2)]), np.eye(4))

    def test_sigma3_conjugation(self):
        e = superop_from_kraus([PAULI[3]])
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(apply_superop(e, x), PAULI[3] @ x @ PAULI[3])

    def test_two_terms_add(self):
        rng = np.random.default_rng(49)
        t, s = random_kraus(2, 2, rng)
        assert np.allclose(
            superop_from_kraus([t, s]),
            superop_from_kraus([t]) + superop_from_kraus([s]),
        )

    def test_maps_densities_to_densities(self):
        rng = np.random.default_rng(50)
        for _ in range(50):
            ops = random_kraus(3, 2, rng)
            rho = random_density(3, rng)
            out = kraus_apply(ops, rho)
            report = validate_density(out, 1e-10, 1e-10)
            assert report.ok

    def test_kraus_sizes_checked(self):
        for build in (superop_from_kraus, pi_operator):
            with pytest.raises(ContractViolation, match="Kraus operator 1 is 3x3, expected 2x2"):
                build([np.eye(2), np.eye(3)])
            with pytest.raises(ContractViolation, match="need at least one Kraus operator"):
                build([])

    def test_output_intensity_identity(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            ops = random_kraus(3, 3, rng)
            rho = random_density(3, rng, trace=1.4)
            lhs = np.trace(kraus_apply(ops, rho)).real
            rhs = quantum_value(rho, pi_operator(ops)).real
            assert abs(lhs - rhs) <= 1e-12


class TestClassification:
    def test_unitary_lossless_nonmixing(self):
        rng = np.random.default_rng(52)
        u = random_unitary(3, rng)
        cls = classify_filter([u])
        assert cls.lossless and cls.passive and not cls.active and not cls.mixing
        assert np.allclose(pi_operator([u]), np.eye(3))

    def test_polarizer_passive_not_lossless(self):
        phi = np.array([1.0, 1j]) / np.sqrt(2)
        cls = classify_filter([np.outer(phi, phi.conj())])
        assert cls.passive and not cls.lossless and not cls.mixing
        assert np.allclose(pi_operator([np.outer(phi, phi.conj())]),
                           np.outer(phi, phi.conj()))

    def test_amplifier_active(self):
        cls = classify_filter([np.sqrt(2.0) * np.eye(2)])
        assert cls.active and not cls.passive
        assert np.allclose(pi_operator([np.sqrt(2.0) * np.eye(2)]), 2.0 * np.eye(2))

    def test_two_term_map_mixing(self):
        rng = np.random.default_rng(53)
        cls = classify_filter(random_kraus(2, 2, rng))
        assert cls.mixing


class TestInstrument:
    def test_null_branch_completes_rates(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        inst = Instrument(((0.8 * p0,),))
        null = inst.null_kraus()
        total = pi_operator(inst.branches[0]) + pi_operator(null)
        assert np.allclose(total, np.eye(2))

    def test_super_unital_rejected(self):
        inst = Instrument(((np.sqrt(1.5) * np.eye(2),),))
        with pytest.raises(ContractViolation, match="super-unital"):
            inst.null_kraus()

    def test_empty_branch_rejected(self):
        with pytest.raises(ContractViolation):
            Instrument(((),))

    def test_kraus_sizes_checked_across_branches(self):
        # operators are numbered across the branches, in order
        with pytest.raises(ContractViolation, match="instrument Kraus operator 2 is 3x3, expected 2x2"):
            Instrument(((np.eye(2), np.eye(2)), (np.eye(3),)))
        with pytest.raises(ContractViolation, match="instrument Kraus operator 1 has non-finite"):
            Instrument(((np.eye(2),), (np.full((2, 2), np.inf),)))
        inst = Instrument(((np.eye(2), 0.5 * np.eye(2)), (PAULI[1],)))
        assert [len(b) for b in inst.branches] == [2, 1]
        assert np.array_equal(inst.branches[0][1], 0.5 * np.eye(2))
        assert np.array_equal(inst.branches[1][0], PAULI[1])
