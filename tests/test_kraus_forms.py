"""Each Kraus-map quantity as one stacked product, against the loops it replaced; one rule for
complete positivity; instrument rates by the measure's rate rule; and the library's refusals."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qtomo
from qtomo import (
    PAULI,
    ContractViolation,
    Detector,
    EventLog,
    Instrument,
    LindbladModel,
    QuantumMeasure,
    choi_rank,
    choi_transform,
    is_completely_positive,
    joint_probabilities,
    kraus_apply,
    kraus_from_choi,
    pauli_six_measure,
    pi_operator,
    stokes_to_density,
    superop_from_action,
    superop_from_kraus,
    tetrahedron_measure,
)
from qtomo import io as qio
from qtomo.ops import hermitian_part
from support import random_density, random_unitary

EPS = np.finfo(float).eps


# The loops each closed form replaced: the oracles of their bits.
def _loop_superop_from_kraus(kraus):
    d = kraus[0].shape[0]
    e = np.zeros((d * d, d * d), dtype=complex)
    for t in kraus:
        e += np.kron(t, t.conj())
    return e


def _loop_kraus_apply(kraus, x):
    out = np.zeros_like(x)
    for t in kraus:
        out = out + t @ x @ t.conj().T
    return out


def _loop_pi_operator(kraus):
    out = np.zeros_like(kraus[0])
    for t in kraus:
        out = out + t.conj().T @ t
    return out


def _loop_superop_from_action(action, d):
    e = np.zeros((d * d, d * d), dtype=complex)
    for j in range(d):
        for k in range(d):
            basis = np.zeros((d, d), dtype=complex)
            basis[j, k] = 1.0
            e[:, d * j + k] = np.asarray(action(basis), dtype=complex).reshape(-1)
    return e


def _loop_stokes_to_density(s):
    rho = np.zeros((2, 2), dtype=complex)
    for c, sigma in zip(np.asarray(s, dtype=float), PAULI):
        rho += c * sigma
    return rho / 2.0


def _loop_joint_probabilities(instrument, measure, rho, tol=1e-9):
    branches = [instrument.null_kraus()] + list(instrument.branches)
    table = np.zeros((len(branches), len(measure) + 1))
    for j, branch in enumerate(branches):
        out = _loop_kraus_apply(branch, rho)
        rates = np.einsum("kab,ba->k", measure.elements, out)
        assert np.max(np.abs(rates.imag)) <= tol
        table[j, 1:] = rates.real
    assert table.min() >= -tol
    return table


def _matrices(rng, shape, dyadic):
    """Random complex matrices: normal entries, or multiples of 1/8 in [-1, 1] (exact sums)."""
    if dyadic:
        return (rng.integers(-8, 9, shape) + 1j * rng.integers(-8, 9, shape)) / 8
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _cases(seed, n=300):
    """(kraus, x) over d = 2..6 and L = 1..9 operators, random and dyadic by turns."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        d, n_ops = int(rng.integers(2, 7)), int(rng.integers(1, 10))
        yield _matrices(rng, (n_ops, d, d), i % 2), _matrices(rng, (d, d), i % 2)


class TestKrausMapsMatchTheLoops:
    def test_kraus_apply_has_the_bits_of_the_loop(self):
        for kraus, x in _cases(1):
            assert np.array_equal(kraus_apply(kraus, x), _loop_kraus_apply(kraus, x))

    def test_pi_operator_has_the_bits_of_the_loop(self):
        for kraus, _ in _cases(2):
            assert np.array_equal(pi_operator(kraus), _loop_pi_operator(kraus))

    def test_superop_from_kraus_is_the_loop_up_to_rounding(self):
        # the Gram product sums in another order: within 8 eps of the largest entry
        for kraus, _ in _cases(3):
            expected = _loop_superop_from_kraus(kraus)
            bound = 8 * EPS * np.abs(expected).max()
            assert np.abs(superop_from_kraus(kraus) - expected).max() <= bound

    def test_superop_from_action_has_the_bits_of_the_loop(self):
        for kraus, x in _cases(4, 100):
            def action(m):
                return kraus[0] @ m @ x + m.T
            d = x.shape[0]
            assert np.array_equal(superop_from_action(action, d),
                                  _loop_superop_from_action(action, d))

    def test_stokes_to_density_has_the_bits_of_the_loop(self):
        rng = np.random.default_rng(7)
        for i in range(500):
            s = rng.normal(size=4) if i % 2 else rng.integers(-8, 9, 4) / 8.0
            s[1:][rng.random(3) < 0.3] = 0.0
            s[0] = np.linalg.norm(s[1:]) + (abs(s[0]) if i % 3 else 0.0)  # pure by turns
            assert np.array_equal(stokes_to_density(s), _loop_stokes_to_density(s))

    def test_kraus_apply_checks_its_operators(self):
        with pytest.raises(ContractViolation, match="need at least one Kraus operator"):
            kraus_apply([], np.eye(2))
        with pytest.raises(ContractViolation, match="Kraus operator 1 is 3x3, expected 2x2"):
            kraus_apply([np.eye(2), np.eye(3)], np.eye(2))


def _sub_unital_instrument(rng, n_ops=2):
    """A random two-branch qubit instrument whose total intensity operator is below one."""
    branches = _matrices(rng, (2, n_ops, 2, 2), False)
    total = sum(_loop_pi_operator(b) for b in branches)
    scale = np.sqrt(np.linalg.eigvalsh(total)[-1] * rng.uniform(1.05, 2.0))
    return Instrument(branches / scale)


class TestInstrumentRates:
    @pytest.mark.parametrize("measure", [pauli_six_measure(), tetrahedron_measure()],
                             ids=["pauli6", "tetrahedron"])
    def test_joint_table_has_the_bits_of_the_loop(self, measure):
        rng = np.random.default_rng(8)
        for i in range(100):
            inst = _sub_unital_instrument(rng, 1 + i % 3)
            rho = random_density(2, rng, pure=bool(i % 2))
            assert np.array_equal(joint_probabilities(inst, measure, rho),
                                  _loop_joint_probabilities(inst, measure, rho))

    def test_each_branch_gets_the_detectors_sum_check(self):
        # a detector summing to (1 + 1e-4) I: the detection rates and every branch's rates are
        # refused by the one rule of response_probabilities
        measure = QuantumMeasure(pauli_six_measure().elements * (1 + 1e-4))
        inst = Instrument(((np.diag([1.0, 0.0]),), (np.diag([0.0, 1.0]),)))
        rho = np.diag([1.0, 0.0])
        with pytest.raises(ContractViolation, match="rates sum to 1.0001, expected the intensity"):
            qtomo.response_probabilities(measure, rho)
        with pytest.raises(ContractViolation, match="rates sum to 1.0001, expected the intensity"):
            joint_probabilities(inst, measure, rho)


def _choi(rng, d, spectrum):
    """An exactly Hermitian d^2 x d^2 Choi matrix with the given spectrum in a random basis."""
    u = random_unitary(d * d, rng)
    return hermitian_part((u * spectrum) @ u.conj().T)


class TestOneCompletePositivityRule:
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("d", [2, 3])
    def test_kraus_extraction_refuses_exactly_the_maps_that_are_not_cp(self, d, scale):
        # by turns: a PSD Choi matrix, and one whose least eigenvalue lies a factor 10 inside
        # or outside -tol * max(largest, 1); the rule's bound is -tol * max(trace, 1), and the
        # trace lies between about the largest and d^2 = 9 times it, so both keep their verdicts
        rng = np.random.default_rng(d)
        for i in range(30):
            spectrum = scale * rng.uniform(0.1, 1.0, d * d)
            bound = 1e-9 * max(spectrum.max(), 1.0)
            spectrum[0] = (spectrum[0], -0.1 * bound, -10.0 * bound)[i % 3]
            choi = _choi(rng, d, spectrum)
            cp = is_completely_positive(choi_transform(choi)).cp
            assert cp == (i % 3 != 2), (i, spectrum[0])
            if cp:
                assert len(kraus_from_choi(choi)) >= 1
            else:
                with pytest.raises(ContractViolation, match="not completely positive"):
                    kraus_from_choi(choi)

    def test_a_large_map_with_a_tiny_negative_eigenvalue_is_cp(self):
        # -5e-8 lies within 1e-9 of the largest eigenvalue 100, so both calls accept the map,
        # and the clipped eigenvalue counts toward neither the Kraus operators nor the rank
        choi = np.diag([100.0, 0.0, 0.0, -5e-8])
        assert is_completely_positive(choi_transform(choi)).cp
        assert len(kraus_from_choi(choi)) == 1 == choi_rank(choi_transform(choi))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 3), st.integers(0, 2 ** 32 - 1), st.booleans(), st.data())
    def test_choi_rank_is_the_kraus_count(self, d, seed, rotate, data):
        # spectra with eigenvalues at zero, about the rank cut 1e-10 of the largest, and
        # negative within and beyond the complete-positivity bound, in a random or the unit basis
        top = data.draw(st.sampled_from([1e-3, 1.0, 100.0]))
        edges = [0.0, 1.0, 3e-11, 3e-10, -3e-11, -3e-10, -5e-10, -5e-8]
        spectrum = top * np.array(data.draw(st.lists(
            st.sampled_from(edges) | st.floats(-1e-9, 1.0), min_size=d * d, max_size=d * d)))
        spectrum[0] = top
        rng = np.random.default_rng(seed)
        choi = _choi(rng, d, spectrum) if rotate else np.diag(spectrum).astype(complex)
        try:
            count = len(kraus_from_choi(choi))
        except ContractViolation as err:
            assert "not completely positive" in str(err)
            return
        assert choi_rank(choi_transform(choi)) == count

    def test_the_zero_map_has_choi_rank_zero(self):
        assert choi_rank(np.zeros((4, 4))) == 0
        assert choi_rank(choi_transform(np.diag([1.0, 0.0, 0.0, 0.0]))) == 1


_RHO = np.diag([1.0, 0.0])
_DETECTOR = Detector(pauli_six_measure(), np.arange(1.0, 7.0))

# (call, message fragment): the refusals of the library that no other test reaches
_REFUSALS = [
    (lambda: qtomo.channels.unvec(np.zeros(3), 2), "cannot reshape length 3"),
    (lambda: qtomo.channels.superop_dim(np.zeros((3, 3))), "must be d^2 x d^2"),
    (lambda: kraus_from_choi(np.triu(np.ones((4, 4)))), "Hermitian defect"),
    (lambda: qtomo.lindblad_evolve(LindbladModel(np.eye(2)), _RHO, -1.0, 0.1),
     "need t >= 0 and dt > 0"),
    (lambda: qio.canonical_json({"a": object()}), "cannot serialize"),
    (lambda: qtomo.response_probabilities(_DETECTOR.measure, np.eye(3) / 3),
     "does not match measure dimension"),
    (lambda: qtomo.response_probabilities(_DETECTOR.measure, [[0.5, 1.0], [0.0, 0.5]]),
     "imaginary part"),
    (lambda: qtomo.response_probabilities(
        QuantumMeasure([np.diag([-0.5, 0.0]), np.diag([1.5, 1.0])]), _RHO),
     "negative response rate"),
    (lambda: qtomo.density_from_state([np.nan, 1.0]), "non-finite components"),
    (lambda: stokes_to_density([1.0, 0.0, 0.0]), "must have 4 components"),
    (lambda: qtomo.density_to_stokes(np.eye(3) / 3), "polarization state must be 2x2"),
    (lambda: qtomo.density_to_stokes(np.diag([1.5, -0.5])),
     "rho: PSD defect 5.000e-01 exceeds --tol-psd 1e-09"),
    (lambda: stokes_to_density([np.nan, 0.0, 0.0, 0.0]), "Stokes bound violated: S0 = nan"),
    (lambda: qtomo.kraus_apply([np.eye(2)], np.eye(3)), "X is (3, 3), the Kraus operators are (2, 2)"),
    (lambda: qtomo.apply_jones(_RHO, np.eye(3)), "does not match state"),
    (lambda: qtomo.beam_splitter(_RHO), "two-beam state must be 4x4"),
    (lambda: qtomo.Leaf(np.eye(3)), "leaf Jones matrix must be 2x2"),
    (lambda: qtomo.cascade_measure("leaf"), "network nodes must be Split or Leaf"),
    (lambda: EventLog(0, "philox4x64", (2,), np.zeros((3, 2), dtype=np.int64)),
     "do not fit bounds"),
    (lambda: qtomo.self_calibrating_tomography(np.zeros((2, 2, 2)), [], []),
     "outputs must have shape"),
    (lambda: qtomo.q_uncertainty(_RHO, np.zeros((2, 3))), "one square matrix or a stack"),
]


@pytest.mark.parametrize("call, fragment", _REFUSALS, ids=[f for _, f in _REFUSALS])
def test_each_library_refusal_names_its_invariant(call, fragment):
    with pytest.raises(ContractViolation, match=re.escape(fragment)):
        call()
