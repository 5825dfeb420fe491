"""One rule each for the analysis layer: quantum values of one operator or a stack, the
unit-intensity check of every probability-like operation, and the runs of a sorted spectrum."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from qtomo import (
    ContractViolation,
    Detector,
    ExperimentConfig,
    QuantumMeasure,
    q_uncertainty,
    quantum_value,
    robertson_check,
    rydberg_ritz_lines,
    statistical_vs_quantum,
)
from qtomo.ops import hermitian_part
from support import random_density, random_unitary

_ENTRIES = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


def _complex_arrays(shape):
    parts = hnp.arrays(float, (2, *shape), elements=_ENTRIES)
    return parts.map(lambda p: p[0] + 1j * p[1])


@st.composite
def _state_and_stack(draw):
    d = draw(st.integers(1, 8))
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    return draw(_complex_arrays((d, d))), draw(_complex_arrays((*lead, d, d)))


class TestQuantumValueOfAStack:
    @settings(max_examples=150, deadline=None)
    @given(_state_and_stack())
    def test_each_value_has_the_bits_of_the_one_operator_value(self, case):
        rho, stack = case
        values = quantum_value(rho, stack)
        if stack.ndim == 2:
            assert type(values) is complex
        else:
            assert values.shape == stack.shape[:-2]
        for index in np.ndindex(stack.shape[:-2]):
            one = complex(np.trace(rho @ stack[index]))  # tr(rho X) of the one operator
            assert np.asarray(values[index] if index else values).tobytes() == \
                np.asarray(one).tobytes()
            assert quantum_value(rho, stack[index]) == one

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 8), st.lists(st.integers(1, 3), max_size=2))
    def test_a_dimension_mismatch_is_refused(self, d, e, lead):
        if d == e:
            e += 1
        with pytest.raises(ContractViolation, match="dimension mismatch"):
            quantum_value(np.eye(d), np.zeros((*lead, e, e)))

    def test_a_stack_of_nonsquare_matrices_is_refused(self):
        with pytest.raises(ContractViolation, match="must be square"):
            quantum_value(np.eye(2), np.zeros((3, 2, 3)))


def _old_rydberg_ritz_lines(H, hbar=1.0, tol=1e-9):
    """rydberg_ritz_lines as a sorted list of pairwise differences merged by one loop."""
    evals = np.linalg.eigvalsh(hermitian_part(np.asarray(H, dtype=complex)))
    spread = max(float(evals[-1] - evals[0]), 1.0)
    cut = tol * spread
    diffs = sorted(
        abs(a - b) for i, a in enumerate(evals) for b in evals[:i] if abs(a - b) > cut
    )
    merged = []
    for x in diffs:
        if merged and x - merged[-1][-1] <= cut:
            merged[-1].append(x)
        else:
            merged.append([x])
    omega = np.array([np.mean(group) for group in merged]) / hbar
    return omega, omega / (2.0 * np.pi)


@st.composite
def _degenerate_hamiltonian(draw):
    """U diag(levels) U* with levels rounded to halves (so many coincide up to rounding), some
    split by a few multiples of a step near the merge gaps tried below (1e-9 to 1e-3 of the
    spread), and a seeded random unitary U."""
    d = draw(st.integers(1, 10))
    levels = np.array(draw(st.lists(st.integers(-6, 6), min_size=d, max_size=d))) / 2.0
    step = draw(st.sampled_from([1e-12, 4e-10, 1e-9, 2e-9, 1e-6, 1e-3]))
    levels = levels + step * np.array(draw(st.lists(st.integers(-3, 3), min_size=d,
                                                    max_size=d)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    u = random_unitary(d, rng)
    return (u * levels) @ u.conj().T


def _bits(x):
    return np.asarray(x).tobytes()


class TestSpectralRuns:
    @settings(max_examples=150, deadline=None)
    @given(_degenerate_hamiltonian(), st.sampled_from([1e-9, 1e-6, 1e-3]),
           st.sampled_from([1.0, 0.7]))
    def test_rydberg_ritz_lines_match_the_loop_bit_for_bit(self, H, tol, hbar):
        lines = rydberg_ritz_lines(H, hbar=hbar, tol=tol)
        omega, nu = _old_rydberg_ritz_lines(H, hbar=hbar, tol=tol)
        assert lines.omega.dtype == omega.dtype and lines.omega.shape == omega.shape
        assert _bits(lines.omega) == _bits(omega) and _bits(lines.nu) == _bits(nu)


def _probability_like(rho):
    """Each probability-like entry point on the state rho: uncertainty and the simulated
    source."""
    d = len(rho)
    measure = QuantumMeasure([np.eye(d)])
    detector = Detector(measure, [1.0])
    return {
        "q_uncertainty": lambda: q_uncertainty(rho, np.eye(d)),
        "robertson_check": lambda: robertson_check(rho, np.eye(d), np.eye(d)),
        "statistical_vs_quantum": lambda: statistical_vs_quantum(detector, rho),
        "ExperimentConfig": lambda: ExperimentConfig(1, 10, rho, measure),
    }


class TestOneUnitIntensityCheck:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2 ** 32 - 1), st.sampled_from([-1.0, 1.0]))
    def test_a_trace_off_by_2e_9_is_refused(self, d, seed, sign):
        rho = random_density(d, np.random.default_rng(seed), trace=1.0 + sign * 2e-9)
        for call in _probability_like(rho).values():
            with pytest.raises(ContractViolation, match="must have unit intensity, trace is"):
                call()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2 ** 32 - 1), st.sampled_from([-1.0, 1.0]))
    def test_a_trace_off_by_5e_10_is_accepted(self, d, seed, sign):
        rho = random_density(d, np.random.default_rng(seed), trace=1.0 + sign * 5e-10)
        for call in _probability_like(rho).values():
            call()

    def test_each_message_names_the_trace(self):
        rho = np.diag([1.0, 1.0])
        messages = set()
        for call in _probability_like(rho).values():
            with pytest.raises(ContractViolation) as err:
                call()
            messages.add(str(err.value))
        assert messages == {"rho must have unit intensity, trace is 2.0",
                            "source must have unit intensity, trace is 2.0"}
