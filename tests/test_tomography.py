import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from qtomo import (
    PAULI,
    ContractViolation,
    ExperimentConfig,
    Instrument,
    NumericalError,
    QuantumMeasure,
    RankDeficiencyError,
    apply_superop,
    density_from_state,
    detector_tomography,
    empirical_rates,
    hermitian_basis,
    informational_completeness,
    instrument_tomography,
    joint_probabilities,
    kraus_from_superop,
    pauli_six_measure,
    process_tomography,
    project_psd,
    projective_measure,
    response_probabilities,
    sample_events,
    self_calibrating_tomography,
    state_tomography,
    superop_from_kraus,
    tetrahedron_measure,
    trace_distance,
    validate_density,
    validate_measure,
)
from qtomo.tomography import _scaled_norms
from support import (
    probe_states,
    random_density,
    random_hermitian,
    random_kraus,
    random_measure,
    random_unitary,
    squash_measure,
    squashed_tetrahedron,
)


def _pauli_six_closed_form(rates):
    """Independent oracle: s_i = 3 (p_i+ - p_i-) for the six-element measure."""
    s = [3.0 * (rates[2 * i] - rates[2 * i + 1]) for i in range(3)]
    rho = 0.5 * np.eye(2, dtype=complex)
    for si, sigma in zip(s, PAULI[1:]):
        rho += 0.5 * si * sigma
    return rho


class TestStateTomography:
    def test_exact_rates_match_closed_form_oracle(self):
        rng = np.random.default_rng(70)
        m = pauli_six_measure()
        for _ in range(10):
            rho = random_density(2, rng, pure=True)
            p = response_probabilities(m, rho)
            oracle = _pauli_six_closed_form(p)
            assert np.max(np.abs(oracle - rho)) <= 1e-12
            est, report = state_tomography(m, p)
            assert trace_distance(est, rho) <= 1e-10
            assert trace_distance(est, oracle) <= 1e-10
            assert report.rank == 4

    def test_maximally_mixed_fixed_point(self):
        m = pauli_six_measure()
        rho = 0.5 * np.eye(2)
        est, _ = state_tomography(m, response_probabilities(m, rho))
        assert trace_distance(est, rho) <= 1e-12

    def test_sampled_rates_close(self):
        rng = np.random.default_rng(71)
        m = pauli_six_measure()
        rho = random_density(2, rng, pure=True)
        cfg = ExperimentConfig(19, 10**6, rho, m)
        log, _ = sample_events(cfg)
        emp = empirical_rates(log)
        est, _ = state_tomography(m, emp.p_hat[1:], emp.stderr[1:])
        assert trace_distance(est, rho) <= 5e-3
        assert validate_density(est).ok

    def test_rank_deficient_design_rejected(self):
        m = projective_measure(np.eye(2))
        with pytest.raises(RankDeficiencyError) as info:
            state_tomography(m, [0.5, 0.5])
        assert info.value.rank == 2
        assert info.value.required == 4

    def test_recovers_intensity_bearing_states(self):
        rng = np.random.default_rng(72)
        m = tetrahedron_measure()
        rho = random_density(2, rng, trace=2.5)
        est, _ = state_tomography(m, response_probabilities(m, rho))
        assert trace_distance(est, rho) <= 1e-10

    def test_multiple_measures_combined(self):
        rng = np.random.default_rng(73)
        m1 = projective_measure(np.eye(2))
        m2 = tetrahedron_measure()
        rho = random_density(2, rng)
        rates = np.concatenate(
            [response_probabilities(m1, rho), response_probabilities(m2, rho)]
        )
        est, _ = state_tomography([m1, m2], rates)
        assert trace_distance(est, rho) <= 1e-10


class TestPsdProjection:
    def test_idempotent(self):
        rng = np.random.default_rng(74)
        x = np.diag([0.8, 0.4, -0.2])
        once, dist = project_psd(x, trace_target=1.2)
        twice, dist2 = project_psd(once, trace_target=1.2)
        assert np.allclose(once, twice)
        assert dist > 0.0
        assert dist2 <= 1e-14

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_distance_of_any_finite_magnitude(self):
        # the distance's squares would underflow (1e-310) or overflow (1e200) unscaled
        for x, target, dist in ((np.diag([1.0, -1e-310]), None, 1e-310),
                                (np.diag([1e200, 1e200]), 1.0, np.sqrt(2.0) * 1e200)):
            _, d = project_psd(x, trace_target=target)
            assert d == pytest.approx(dist, rel=1e-15)
            _, ds = project_psd(np.stack([x, np.eye(2)]), trace_target=target)
            assert ds[0] == d

    def test_residual_increase_bounded_by_projection_distance(self):
        rng = np.random.default_rng(75)
        m = pauli_six_measure()
        for seed in range(5):
            rho = random_density(2, rng, pure=True)
            cfg = ExperimentConfig(1000 + seed, 10**4, rho, m)
            log, _ = sample_events(cfg)
            emp = empirical_rates(log)
            est, report = state_tomography(m, emp.p_hat[1:])
            before = report.extras["residual_unprojected"]
            assert report.residual <= before + report.projection_distance + 1e-12


def _clip_then_rescale(x, target):
    """The projection project_psd made before the simplex one: clip, then rescale the trace."""
    evals, evecs = np.linalg.eigh(0.5 * (x + x.conj().T))
    out = (evecs * np.clip(evals, 0.0, None)) @ evecs.conj().T
    tr = float(np.trace(out).real)
    return out * (target / tr) if tr > 0.0 else out


@st.composite
def _hermitian_and_target(draw):
    d = draw(st.integers(1, 5))
    parts = draw(hnp.arrays(np.float64, (2, d, d), elements=st.floats(-10.0, 10.0)))
    g = parts[0] + 1j * parts[1]
    return 0.5 * (g + g.conj().T), draw(st.floats(1e-3, 20.0))


class TestPsdProjectionProperties:
    """Invariants of the trace-constrained projection, for any Hermitian input."""

    @staticmethod
    def _scale(h, target):
        return max(1.0, float(np.linalg.norm(h)), target)

    @settings(max_examples=300, deadline=None)
    @given(_hermitian_and_target())
    def test_psd_with_target_trace(self, case):
        h, target = case
        out, _ = project_psd(h, trace_target=target)
        tol = 1e-12 * self._scale(h, target)
        assert np.max(np.abs(out - out.conj().T)) <= tol
        assert np.linalg.eigvalsh(out)[0] >= -tol
        assert abs(np.trace(out).real - target) <= tol

    @settings(max_examples=300, deadline=None)
    @given(_hermitian_and_target())
    def test_idempotent(self, case):
        h, target = case
        once, _ = project_psd(h, trace_target=target)
        twice, dist = project_psd(once, trace_target=target)
        assert dist <= 1e-12 * self._scale(h, target)
        assert np.max(np.abs(twice - once)) <= 1e-12 * self._scale(h, target)

    @settings(max_examples=300, deadline=None)
    @given(_hermitian_and_target())
    def test_never_farther_than_clip_then_rescale(self, case):
        h, target = case
        with np.errstate(over="ignore", invalid="ignore"):
            old = _clip_then_rescale(h, target)
        # only where clip-then-rescale is feasible: some positive eigenvalue, no overflow
        assume(np.all(np.isfinite(old)) and np.trace(old).real > 0.0)
        _, dist = project_psd(h, trace_target=target)
        assert dist <= np.linalg.norm(old - h) + 1e-12 * self._scale(h, target)

    def test_exact_simplex_optimum(self):
        x = np.diag([0.8, 0.4, -0.2])
        out, dist = project_psd(x, trace_target=1.0)
        assert np.max(np.abs(out - np.diag([0.7, 0.3, 0.0]))) <= 1e-15
        assert dist < np.linalg.norm(_clip_then_rescale(x, 1.0) - x)

    @pytest.mark.parametrize("target", [0.0, -0.5])
    def test_nonpositive_target_keeps_clip_then_rescale(self, target):
        rng = np.random.default_rng(79)
        for x in (random_hermitian(3, rng), -np.eye(3), np.diag([0.8, 0.4, -0.2])):
            out, dist = project_psd(x, trace_target=target)
            expected = _clip_then_rescale(x, target)
            assert np.max(np.abs(out - expected)) <= 1e-14
            assert dist == pytest.approx(np.linalg.norm(expected - x), abs=1e-14)

    def test_stack_matches_one_matrix_at_a_time(self):
        rng = np.random.default_rng(86)
        stack = np.stack([random_hermitian(3, rng) for _ in range(6)]).reshape(2, 3, 3, 3)
        targets = np.array([[1.0, 0.0, -1.0], [2.0, 0.5, 3.0]])
        out, dist = project_psd(stack, trace_target=targets)
        assert out.shape == stack.shape and dist.shape == (2, 3)
        for i in range(2):
            for j in range(3):
                one, one_dist = project_psd(stack[i, j], trace_target=targets[i, j])
                assert np.max(np.abs(out[i, j] - one)) <= 1e-14
                assert abs(dist[i, j] - one_dist) <= 1e-14
        clipped, _ = project_psd(stack)
        assert np.max(np.abs(clipped[1, 2] - project_psd(stack[1, 2])[0])) <= 1e-14


@st.composite
def _wide_spectrum(draw):
    """A Hermitian matrix whose eigenvalue magnitudes span up to 400 orders, and a target."""
    d = draw(st.integers(1, 6))
    exponents = np.array(draw(st.lists(st.floats(-100.0, 300.0), min_size=d, max_size=d)))
    signs = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=d, max_size=d)))
    u = random_unitary(d, np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))))
    return (u * (signs * 10.0 ** exponents)) @ u.conj().T, 10.0 ** draw(st.floats(-6.0, 6.0))


class TestSimplexKeepsTheTrace:
    """The trace target survives eigenvalues far larger or smaller than it."""

    @settings(max_examples=300, deadline=None)
    @given(_wide_spectrum())
    @example((np.diag([1e16, 0.0]), 1.0))
    @example((np.diag([1e100, 1e100, -1e100]), 1.0))
    @example((np.diag([1e100, 1e-100, 3.0]), 1e-6))
    @example((np.diag([1e300, -1e300]), 1.0))
    def test_psd_with_target_trace(self, case):
        h, target = case
        out, dist = project_psd(h, trace_target=target)
        tol = 1e-12 * max(1.0, target)
        assert np.linalg.eigvalsh(out)[0] >= -tol
        assert abs(np.trace(out).real - target) <= tol
        assert np.isfinite(dist)

    def test_entries_beyond_the_square_root_of_the_float_range(self):
        # the distance squares 1e200 past the float range unless it is scaled first
        out, dist = project_psd(np.diag([1e200, 1e200]), trace_target=1.0)
        assert np.max(np.abs(out - np.diag([0.5, 0.5]))) <= 1e-15
        assert dist == pytest.approx(np.sqrt(2.0) * 1e200, rel=1e-15)


class TestDetectorTomography:
    def test_exact_recovery_of_projective_measure(self):
        probes = [
            0.5 * (np.eye(2) + PAULI[1]),
            0.5 * (np.eye(2) + PAULI[2]),
            0.5 * (np.eye(2) + PAULI[3]),
            0.5 * (np.eye(2) - PAULI[3]),
        ]
        target = projective_measure(np.eye(2))
        rates = np.stack([response_probabilities(target, p) for p in probes])
        est, report = detector_tomography(probes, rates)
        for a, b in zip(est.elements, target.elements):
            assert np.max(np.abs(a - b)) <= 1e-10
        assert validate_measure(est).ok

    def test_single_element_identity_device(self):
        probes = probe_states(2)
        rates = np.ones((4, 1))
        est, _ = detector_tomography(probes, rates)
        assert np.max(np.abs(est.elements[0] - np.eye(2))) <= 1e-10

    def test_sampled_rates_tetrahedron(self):
        target = tetrahedron_measure()
        probes = probe_states(2)
        rates, errs = [], []
        for i, probe in enumerate(probes):
            cfg = ExperimentConfig(500 + i, 10**6, probe, target)
            log, _ = sample_events(cfg)
            emp = empirical_rates(log)
            rates.append(emp.p_hat[1:])
            errs.append(emp.stderr[1:])
        est, _ = detector_tomography(probes, np.stack(rates), np.stack(errs))
        for a, b in zip(est.elements, target.elements):
            assert np.max(np.abs(a - b)) <= 1e-2
        assert validate_measure(est).ok

    def test_deficit_loop_reports_iterations(self):
        probes = probe_states(2)
        rates = np.stack([response_probabilities(tetrahedron_measure(), p) for p in probes])
        _, report = detector_tomography(probes, rates)
        assert report.extras["deficit_iterations"] == 0
        assert "deficit_not_converged" not in report.flags

    def test_deficit_left_open_is_flagged(self):
        # every element clips to zero, so no trace is left to carry the deficit
        _, report = detector_tomography(probe_states(2), -np.ones((4, 2)))
        assert "deficit_not_converged" in report.flags
        assert report.extras["deficit_iterations"] == 0
        assert report.extras["sum_defect"] == pytest.approx(1.0)

    def test_projection_distance_counts_the_deficit_step(self):
        # noisy rates of a measure summing to 1.05 I: every solution is PSD, so the clip
        # moves nothing and only the deficit step moves the estimate
        rng = np.random.default_rng(1)
        measure = random_measure(2, 6, rng)
        probes = probe_states(2) + [random_density(2, rng) for _ in range(2)]
        rates = 1.05 * np.stack([response_probabilities(measure, p) for p in probes])
        rates += 1e-3 * rng.normal(size=rates.shape)
        est, report = detector_tomography(probes, rates)
        solutions = np.stack([_per_column_solve(probes, column)[0] for column in rates.T])
        assert min(np.linalg.eigvalsh(x)[0] for x in solutions) > 0.0
        assert report.extras["deficit_iterations"] >= 1
        assert report.projection_distance > 0.01
        assert report.projection_distance == pytest.approx(
            np.linalg.norm(est.elements - solutions), rel=1e-12)

    def test_projected_flag_follows_the_state_and_instrument_rule(self):
        # rates of the tetrahedron measure summing to 1.05 I, with noise: the projection
        # moves the estimate by 0.0745, far above 1e-12 of the largest element trace
        probes = probe_states(2)
        rates = np.stack([response_probabilities(tetrahedron_measure(), p) for p in probes])
        noisy = 1.05 * rates + 0.01 * np.random.default_rng(0).normal(size=rates.shape)
        _, report = detector_tomography(probes, noisy)
        assert report.projection_distance == pytest.approx(0.0745, abs=1e-4)
        assert report.flags == ("projected",)
        _, report = detector_tomography(probes, rates)
        assert report.projection_distance <= 1e-12 and report.flags == ()

    def test_probe_rank_deficiency_names_rank(self):
        probes = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.diag([0.5, 0.5])]
        with pytest.raises(RankDeficiencyError) as info:
            detector_tomography(probes, np.ones((3, 1)))
        assert info.value.rank == 2


class TestProcessTomography:
    def test_identity_channel(self):
        probes = probe_states(2)
        est, report = process_tomography(probes, probes)
        assert np.max(np.abs(est - np.eye(4))) <= 1e-10
        assert report.extras["choi_rank"] == 1

    def test_unitary_channel_choi_rank_one_and_kraus_matches(self):
        rng = np.random.default_rng(76)
        u = random_unitary(2, rng)
        probes = probe_states(2)
        outputs = [u @ p @ u.conj().T for p in probes]
        est, report = process_tomography(probes, outputs)
        assert report.extras["choi_rank"] == 1
        (t,) = kraus_from_superop(est)
        phase = np.vdot(u.reshape(-1), t.reshape(-1))
        phase /= abs(phase)
        assert np.max(np.abs(t - phase * u)) <= 1e-8

    def test_dephasing_contraction_factor(self):
        # analytic oracle: dephasing scales off-diagonals by c = exp(-2 gamma t)
        gamma, t = 0.4, 1.25
        c = np.exp(-2.0 * gamma * t)
        kraus = [np.sqrt((1 + c) / 2) * np.eye(2), np.sqrt((1 - c) / 2) * PAULI[3]]
        channel = superop_from_kraus(kraus)
        probes = probe_states(2)
        outputs = [apply_superop(channel, p) for p in probes]
        est, _ = process_tomography(probes, outputs)
        plus = density_from_state(np.array([1.0, 1.0]) / np.sqrt(2))
        recovered = apply_superop(est, plus)[0, 1].real / plus[0, 1].real
        assert abs(recovered - c) <= 1e-8

    def test_exact_round_trip_random_cp_maps(self):
        rng = np.random.default_rng(77)
        for d in (2, 3):
            probes = probe_states(d)
            for _ in range(10):
                e = superop_from_kraus(random_kraus(d, 2, rng))
                outputs = [apply_superop(e, p) for p in probes]
                est, _ = process_tomography(probes, outputs)
                assert np.max(np.abs(est - e)) <= 1e-10

    def test_span_deficiency_rejected(self):
        probes = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        with pytest.raises(RankDeficiencyError):
            process_tomography(probes, probes)

    def test_mismatched_lengths_rejected(self):
        probes = probe_states(2)
        with pytest.raises(ContractViolation):
            process_tomography(probes, probes[:-1])

    def test_states_of_another_size_rejected(self):
        probes = probe_states(2)
        odd = probes[:-1] + [np.eye(3) / 3]
        with pytest.raises(ContractViolation, match="probe state 3 is 3x3, expected 2x2"):
            process_tomography(odd, probes)
        with pytest.raises(ContractViolation, match="output state 3 is 3x3, expected 2x2"):
            process_tomography(probes, odd)
        with pytest.raises(ContractViolation, match="of size 3"):
            process_tomography(probes, [np.eye(3) / 3] * len(probes))
        with pytest.raises(ContractViolation, match="probe state 3 is 3x3, expected 2x2"):
            detector_tomography(odd, np.full((len(odd), 2), 0.5))


def _projective_instrument():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    return Instrument(((p0,), (p1,)))


class TestInstrumentTomography:
    def test_exact_recovery_of_projective_branches(self):
        inst = _projective_instrument()
        measure = tetrahedron_measure()
        probes = probe_states(2)
        tables = np.stack([joint_probabilities(inst, measure, p) for p in probes])
        maps, report = instrument_tomography(tables, probes, measure)
        basis = hermitian_basis(2)
        for j, proj in ((1, np.diag([1.0, 0.0])), (2, np.diag([0.0, 1.0]))):
            for b in basis:
                assert np.max(np.abs(apply_superop(maps[j], b) - proj @ b @ proj)) <= 1e-8
        assert "null_branch_zero" in report.flags
        assert report.rank == 4

    def test_single_identity_branch(self):
        inst = Instrument(((np.eye(2, dtype=complex),),))
        measure = tetrahedron_measure()
        probes = probe_states(2)
        tables = np.stack([joint_probabilities(inst, measure, p) for p in probes])
        maps, report = instrument_tomography(tables, probes, measure)
        assert np.allclose(report.extras["branch_marginals"][:, 1], 1.0)
        for b in hermitian_basis(2):
            assert np.max(np.abs(apply_superop(maps[1], b) - b)) <= 1e-8

    def test_marginals_match_recovered_rates(self):
        inst = _projective_instrument()
        measure = tetrahedron_measure()
        probes = probe_states(2)
        tables = np.stack([joint_probabilities(inst, measure, p) for p in probes])
        _, report = instrument_tomography(tables, probes, measure)
        assert np.max(np.abs(report.extras["predicted_marginals"]
                             - report.extras["branch_marginals"])) <= 1e-8

    def test_empty_branch_bin_rejected(self):
        inst = _projective_instrument()
        measure = tetrahedron_measure()
        probes = probe_states(2)
        tables = np.stack([joint_probabilities(inst, measure, p) for p in probes])
        tables[:, 2, :] = 0.0  # erase all events for branch 2
        with pytest.raises(ContractViolation, match="branch 2"):
            instrument_tomography(tables, probes, measure)

    def test_probes_of_another_size_rejected(self):
        measure = tetrahedron_measure()
        probes = probe_states(3)
        tables = np.full((len(probes), 2, 5), 0.1)
        with pytest.raises(ContractViolation, match="measures 2x2 states"):
            instrument_tomography(tables, probes, measure)
        with pytest.raises(ContractViolation, match="probe state 4 is 3x3, expected 2x2"):
            instrument_tomography(tables[:5], probe_states(2) + [np.eye(3) / 3], measure)

    def test_incomplete_second_detector_rejected(self):
        inst = _projective_instrument()
        measure = projective_measure(np.eye(2))
        probes = probe_states(2)
        tables = np.stack([joint_probabilities(inst, measure, p) for p in probes])
        with pytest.raises(RankDeficiencyError):
            instrument_tomography(tables, probes, measure)
        tables[:, 2] = 0.0  # a silent branch does not hide the rank deficiency
        with pytest.raises(RankDeficiencyError, match="rank 2 < 4"):
            instrument_tomography(tables, probes, measure)

    def test_ill_conditioned_detector_is_flagged(self):
        measure = squashed_tetrahedron(1e-7)
        probes = probe_states(2)
        tables = np.stack([joint_probabilities(_projective_instrument(), measure, p)
                           for p in probes])
        _, report = instrument_tomography(tables, probes, measure)
        _, state_report = state_tomography(measure, tables[0, 1:, 1:].sum(axis=0))
        assert report.rank == 4 and report.cond == state_report.cond > 1e7
        # the rounding that cond 1.7e7 amplifies moves every output by about 1e-9: state
        # tomography flags that as projected, and the instrument by the same rule
        assert state_report.flags == ("ill_conditioned", "projected")
        assert report.flags == ("null_branch_zero", "ill_conditioned", "projected")

    def test_sampled_marginals_within_bounds(self):
        inst = _projective_instrument()
        measure = tetrahedron_measure()
        rho = np.diag([0.3, 0.7]).astype(complex)
        cfg = ExperimentConfig(21, 10**5, rho, measure, inst)
        log, _ = sample_events(cfg)
        emp = empirical_rates(log)
        stderr = np.sqrt(0.3 * 0.7 / 10**5)
        assert abs(emp.p_hat.sum(axis=1)[1] - 0.3) <= 5 * stderr
        assert abs(emp.p_hat.sum(axis=1)[2] - 0.7) <= 5 * stderr


@st.composite
def _qubit_measures(draw):
    """Random qubit measures of 2 to 6 elements, some squashed along a random Bloch axis
    by 10^-k for k = 3 ... 9, which brings their design near the rank cut."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    measure = random_measure(2, draw(st.integers(2, 6)), rng)
    k = draw(st.none() | st.integers(3, 9))
    if k is not None:
        axis = rng.normal(size=3)
        measure = squash_measure(measure, axis / np.linalg.norm(axis), 10.0 ** -k)
    return measure


class TestOneRankRule:
    """informational_completeness and the reconstructions judge a detector alike."""

    @settings(max_examples=80, deadline=None)
    @given(_qubit_measures())
    def test_complete_exactly_when_state_and_instrument_tomography_accept(self, measure):
        probes = probe_states(2)
        tables = np.stack([joint_probabilities(_projective_instrument(), measure, p)
                           for p in probes])
        runs = (lambda: state_tomography(measure, response_probabilities(measure, probes[2])),
                lambda: instrument_tomography(tables, probes, measure))
        if informational_completeness(measure).rank == 4:
            for run in runs:
                run()
        else:
            for run in runs:
                with pytest.raises(RankDeficiencyError):
                    run()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 3), st.integers(0, 2), st.integers(0, 2 ** 32 - 1))
    def test_rank_and_cond_are_those_of_the_operators(self, d, extra, missing, seed):
        """Every engine's rank and cond are those of the basis-free matrix [Re vec O_k, Im vec O_k]
        of its Hermitian operators: d^2 + extra of them, spanning d^2 - missing dimensions."""
        rng = np.random.default_rng(seed)
        span = np.stack([random_hermitian(d, rng) for _ in range(d * d - missing)])
        ops = np.einsum("kr,rij->kij", rng.normal(size=(d * d + extra, len(span))), span)
        flat = ops.reshape(len(ops), -1)
        sing = np.linalg.svd(np.concatenate([flat.real, flat.imag], axis=1), compute_uv=False)
        rank = int(np.sum(sing > sing[0] * 1e-10))
        assert informational_completeness(QuantumMeasure(ops)).rank == rank
        runs = (lambda: state_tomography(QuantumMeasure(ops), np.ones(len(ops))),
                lambda: detector_tomography(ops, np.ones((len(ops), 2))),
                lambda: process_tomography(ops, ops))
        if rank < d * d:
            for run in runs:
                with pytest.raises(RankDeficiencyError) as info:
                    run()
                assert info.value.rank == rank
            return
        reports = [run()[1] for run in runs]
        assert all(r.rank == rank and r.cond == reports[0].cond for r in reports)
        assert reports[0].cond == pytest.approx(sing[0] / sing[rank - 1], rel=1e-9)


class TestSelfCalibration:
    def _ground_truth(self, rng, n_filters=2, n_sources=3, d=2):
        filters = [superop_from_kraus(random_kraus(d, 2, rng)) for _ in range(n_filters)]
        sources = [random_density(d, rng) for _ in range(n_sources)]
        outputs = np.array(
            [[apply_superop(f, s) for s in sources] for f in filters]
        )
        return filters, sources, outputs

    def test_exact_guesses_are_fixed_point(self):
        rng = np.random.default_rng(80)
        filters, sources, outputs = self._ground_truth(rng)
        result = self_calibrating_tomography(outputs, filters, sources)
        assert result.iterations == 0
        assert result.residual <= 1e-12
        assert result.converged and result.flags == ()

    def test_stopping_at_max_iter_is_flagged(self):
        rng = np.random.default_rng(81)
        filters, sources, outputs = self._ground_truth(rng)
        init_f = [f + 1e-2 * rng.normal(size=f.shape) for f in filters]
        result = self_calibrating_tomography(outputs, init_f, sources, max_iter=1)
        assert result.iterations == 1 and not result.converged
        assert result.flags == ("not_converged",)

    def test_perturbed_guesses_converge_on_exact_data(self):
        rng = np.random.default_rng(81)
        filters, sources, outputs = self._ground_truth(rng)
        init_f = [f + 1e-2 * rng.normal(size=f.shape) for f in filters]
        init_s = []
        for s in sources:
            g = rng.normal(size=s.shape) + 1j * rng.normal(size=s.shape)
            init_s.append(s + 1e-2 * 0.5 * (g + g.conj().T))
        result = self_calibrating_tomography(outputs, init_f, init_s, max_iter=50)
        assert result.residual < 1e-8
        assert result.iterations <= 50
        # gauge-fixed data residual is the convergence criterion, and the
        # predicted data must match the observations
        for k, f in enumerate(result.filters):
            for ell, s in enumerate(result.sources):
                assert np.max(np.abs(apply_superop(f, s) - outputs[k, ell])) <= 1e-7

    def test_monotone_residual_history(self):
        rng = np.random.default_rng(82)
        filters, sources, outputs = self._ground_truth(rng, n_sources=5)
        init_f = [f + 5e-2 * rng.normal(size=f.shape) for f in filters]
        result = self_calibrating_tomography(outputs, init_f, sources, max_iter=30)
        assert np.all(np.diff(result.residual_history) <= 1e-10)

    def test_inconsistent_data_reaches_stationary_point(self):
        rng = np.random.default_rng(83)
        d = 2
        # overdetermined grid (5 sources > d^2) of random Hermitian "outputs"
        outputs = np.empty((2, 5, d, d), dtype=complex)
        for k in range(2):
            for ell in range(5):
                g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                outputs[k, ell] = 0.5 * (g + g.conj().T)
        init_f = [superop_from_kraus(random_kraus(d, 2, rng)) for _ in range(2)]
        init_s = [random_density(d, rng) for _ in range(5)]
        result = self_calibrating_tomography(outputs, init_f, init_s, max_iter=300)
        assert result.residual > 1e-3
        assert np.all(np.diff(result.residual_history) <= 1e-10)

    @pytest.mark.parametrize("sizes", [(9, 9), (4, 9)], ids=["mis-sized", "mixed"])
    def test_filters_must_act_on_the_sources(self, sizes):
        rng = np.random.default_rng(87)
        _, sources, outputs = self._ground_truth(rng)
        with pytest.raises(ContractViolation, match="superoperator"):
            self_calibrating_tomography(outputs, [np.eye(n) for n in sizes], sources)

    def test_needs_two_by_two_grid(self):
        rng = np.random.default_rng(84)
        filters, sources, outputs = self._ground_truth(rng)
        with pytest.raises(ContractViolation):
            self_calibrating_tomography(outputs[:1], filters[:1], sources)


class TestReconstructedObjectsAreValid:
    def test_random_measures_and_states_round_trip_valid(self):
        rng = np.random.default_rng(85)
        for d in (2, 3):
            m = random_measure(d, d * d, rng)
            rho = random_density(d, rng)
            est_rho, _ = state_tomography(m, response_probabilities(m, rho))
            assert validate_density(est_rho).ok
            probes = probe_states(d)
            rates = np.stack([response_probabilities(m, p) for p in probes])
            est_m, _ = detector_tomography(probes, rates)
            assert validate_measure(est_m).ok


def _per_column_solve(operators, rates, stderr=None):
    """Reference: the one-column Hermitian solve the engines ran before they factored
    each design once.  Every call builds its own basis and design, runs its own SVD
    for the rank and condition checks, and solves with lstsq."""
    ops = np.stack([np.asarray(o, dtype=complex) for o in operators])
    d = ops.shape[1]
    basis = hermitian_basis(d)
    m = np.einsum("aij,kji->ka", basis, ops).real
    sing = np.linalg.svd(m, compute_uv=False)
    rank = int(np.sum(sing > sing[0] * 1e-10))
    assert rank == d * d
    cond = float(sing[0] / sing[rank - 1])
    y = np.asarray(rates, dtype=float)
    mw, yw = m, y
    if stderr is not None and not np.all(np.asarray(stderr) == 0.0):
        err = np.asarray(stderr, dtype=float)
        w = 1.0 / np.clip(err, max(err.max() * 1e-6, 1e-300), None)
        mw, yw = m * w[:, None], y * w
    coeff = np.linalg.lstsq(mw, yw, rcond=None)[0]
    x = np.tensordot(coeff, basis, axes=(0, 0))
    return x, float(np.linalg.norm(m @ coeff - y)), cond, rank


def _oracle_state(measure, rates):
    x, _, cond, rank = _per_column_solve(measure.elements, rates)
    rho, dist = project_psd(x, trace_target=float(np.sum(rates)))
    pred = np.einsum("kij,ji->k", measure.elements, rho).real
    return rho, float(np.linalg.norm(pred - rates)), cond, rank, dist


def _oracle_detector(probes, table, stderr):
    """Reference: one solve, one clip and one deficit share per element.  The projection
    distance is that of the returned elements from the unconstrained solutions."""
    solutions, elements, residual_sq = [], [], 0.0
    for k in range(table.shape[1]):
        x, res, cond, rank = _per_column_solve(
            probes, table[:, k], None if stderr is None else stderr[:, k])
        solutions.append(x)
        elements.append(project_psd(x)[0])
        residual_sq += res ** 2
    d = probes[0].shape[0]
    for _ in range(100):
        deficit = np.eye(d) - np.sum(elements, axis=0)
        if np.max(np.abs(deficit)) <= 1e-12:
            break
        traces = np.array([max(float(np.trace(p).real), 0.0) for p in elements])
        if traces.sum() <= 0.0:
            break
        redistributed = []
        for share, p in zip(traces / traces.sum(), elements):
            redistributed.append(project_psd(p + share * deficit)[0])
        elements = redistributed
    dist = np.sqrt(sum(np.linalg.norm(p - x) ** 2 for p, x in zip(elements, solutions)))
    return elements, np.sqrt(residual_sq), cond, rank, dist


def _oracle_instrument(tables, probes, measure):
    """Reference: the per-branch instrument fit the engine ran before it fitted all
    branches at once.  Each responding branch gets its own pseudo-inverse of the probe
    matrix, and each (probe, branch) marginal its own apply_superop.  The report's cond
    is the larger of the probe matrix's and the detector design's, and its projection
    distance the root sum of the responding outputs' PSD projection distances."""
    d = measure.dim
    v = np.stack([p.reshape(-1) for p in probes], axis=1)
    sing = np.linalg.svd(v, compute_uv=False)
    assert np.sum(sing > sing[0] * 1e-10) == d * d
    _, _, det_cond, _ = _per_column_solve(measure.elements, np.zeros(len(measure)))
    cond = max(float(sing[0] / sing[-1]), det_cond)
    maps, flags, residual_sq, dist_sq = [], [], 0.0, 0.0
    for j in range(tables.shape[1]):
        if tables[:, j].sum(axis=1).max() <= 1e-12:
            assert j == 0
            maps.append(np.zeros((d * d, d * d), dtype=complex))
            flags.append("null_branch_zero")
            continue
        outputs = []
        for ell in range(len(probes)):
            rho, res, _, _, dist = _oracle_state(measure, tables[ell, j, 1:])
            outputs.append(rho)
            residual_sq += res ** 2
            dist_sq += dist ** 2
        w = np.stack([o.reshape(-1) for o in outputs], axis=1)
        e = w @ np.linalg.pinv(v)
        residual_sq += np.linalg.norm(e @ v - w) ** 2
        maps.append(e)
    predicted = np.array([[np.trace(apply_superop(e, p)).real for e in maps] for p in probes])
    if cond > 1e6:
        flags.append("ill_conditioned")
    if np.sqrt(dist_sq) > 1e-12 * max(1.0, tables[:, :, 1:].sum(axis=2).max()):
        flags.append("projected")  # state tomography's rule, on the largest output trace
    return (maps, np.sqrt(residual_sq), cond, d * d, np.sqrt(dist_sq), predicted, tuple(flags))


def _problem(d, noisy, rng):
    """Probes, an informationally complete measure and its exact or noisy rate table."""
    probes = probe_states(d) + [random_density(d, rng) for _ in range(3)]
    measure = random_measure(d, d * d + 2, rng)
    table = np.stack([response_probabilities(measure, p) for p in probes])
    if noisy:
        table = table + 1e-2 * rng.normal(size=table.shape)
    return probes, measure, table


class TestFactoredEnginesMatchPerColumnOracle:
    """One factored solve over all columns agrees with one solve per column."""

    TOL = 1e-12

    def _close(self, est, oracle, scale=1.0):
        assert abs(est - oracle) <= self.TOL * max(1.0, scale)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("noisy", [False, True], ids=["exact", "noisy"])
    def test_state(self, d, noisy):
        rng = np.random.default_rng(90 + d + 10 * noisy)
        _, measure, table = _problem(d, noisy, rng)
        for rates in table:
            rho, report = state_tomography(measure, rates)
            o_rho, o_res, o_cond, o_rank, o_dist = _oracle_state(measure, rates)
            assert np.max(np.abs(rho - o_rho)) <= self.TOL
            self._close(report.residual, o_res)
            self._close(report.cond, o_cond, o_cond)
            self._close(report.projection_distance, o_dist)
            assert report.rank == o_rank

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("noisy", [False, True], ids=["exact", "noisy"])
    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    def test_detector(self, d, noisy, weighted):
        rng = np.random.default_rng(100 + d + 10 * noisy + 20 * weighted)
        probes, _, table = _problem(d, noisy, rng)
        stderr = None
        if weighted:
            stderr = rng.uniform(1e-3, 2e-2, size=table.shape)
            stderr[:, 0] = 0.0  # a column without errors is solved unweighted
        est, report = detector_tomography(probes, table, stderr)
        o_elements, o_res, o_cond, o_rank, o_dist = _oracle_detector(probes, table, stderr)
        assert np.max(np.abs(est.elements - np.stack(o_elements))) <= self.TOL
        self._close(report.residual, o_res)
        self._close(report.cond, o_cond, o_cond)
        self._close(report.projection_distance, o_dist)
        assert report.rank == o_rank

    def _check_instrument(self, tables, probes, measure):
        maps, report = instrument_tomography(tables, probes, measure)
        (o_maps, o_res, o_cond, o_rank, o_dist, o_predicted,
         o_flags) = _oracle_instrument(tables, probes, measure)
        assert len(maps) == len(o_maps)
        for e, o in zip(maps, o_maps):
            assert np.max(np.abs(e - o)) <= self.TOL
        self._close(report.residual, o_res)
        self._close(report.cond, o_cond, o_cond)
        self._close(report.projection_distance, o_dist)
        assert report.rank == o_rank and report.flags == o_flags
        assert np.max(np.abs(report.extras["predicted_marginals"] - o_predicted)) <= self.TOL
        return report

    @staticmethod
    def _instrument_problem(d, noisy):
        rng = np.random.default_rng(110 + d + 10 * noisy)
        probes = probe_states(d) + [random_density(d, rng)]
        measure = random_measure(d, d * d + 1, rng)
        inst = Instrument(tuple((k,) for k in random_kraus(d, 2, rng, scale=0.3 / np.sqrt(d))))
        tables = np.stack([joint_probabilities(inst, measure, p) for p in probes])
        if noisy:
            tables = tables + 1e-3 * rng.normal(size=tables.shape)
        return tables, probes, measure

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("noisy", [False, True], ids=["exact", "noisy"])
    def test_instrument(self, d, noisy):
        self._check_instrument(*self._instrument_problem(d, noisy))

    @pytest.mark.parametrize("case", ["silent_null", "null_only"])
    def test_instrument_null_branch_edges(self, case):
        rng = np.random.default_rng(120)
        probes = probe_states(2) + [random_density(2, rng)]
        measure = tetrahedron_measure()
        if case == "silent_null":  # projective branches leave the null branch no rate
            tables = np.stack([joint_probabilities(_projective_instrument(), measure, p)
                               for p in probes])
        else:  # one lossy branch, of which only the null branch is kept
            inst = Instrument(((0.6 * random_unitary(2, rng),),))
            tables = np.stack([joint_probabilities(inst, measure, p) for p in probes])[:, :1]
        report = self._check_instrument(tables, probes, measure)
        assert report.flags == (("null_branch_zero",) if case == "silent_null" else ())


def _lossy_weak_measurement(rng):
    """Two-branch qubit instrument: a weak z measurement of random strength, a random unitary
    after it, and a random efficiency, whose loss the null branch takes."""
    s, eta, u = rng.uniform(0.2, 0.8), rng.uniform(0.8, 0.99), random_unitary(2, rng)
    weights = np.sqrt(eta * np.array([[1 + s, 1 - s], [1 - s, 1 + s]]) / 2)
    return Instrument(tuple((u @ np.diag(w),) for w in weights))


class TestOutputProjectionHelps:
    """Projecting each conditional output before the map fit brings sampled maps closer
    to the truth than fitting the unprojected outputs."""

    @staticmethod
    def _unprojected(tables, probes, measure):
        """Reference without the output projection: one Hermitian least-squares solve per
        (probe, branch) output, then pinv of the probe matrix for every branch."""
        v = np.stack([p.reshape(-1) for p in probes], axis=1)
        return [np.stack([_per_column_solve(measure.elements, table[j, 1:])[0].reshape(-1)
                          for table in tables], axis=1) @ np.linalg.pinv(v)
                for j in range(tables.shape[1])]

    def test_projected_maps_are_closer_to_the_truth(self):
        rng = np.random.default_rng(0)
        measure = tetrahedron_measure()
        probes = probe_states(2)  # |0>, |1>, |+>, |+i>
        wins = 0
        for i in range(10):
            inst = _lossy_weak_measurement(rng)
            truth = [superop_from_kraus(k) for k in (inst.null_kraus(),) + inst.branches]
            tables = np.stack([
                empirical_rates(sample_events(
                    ExperimentConfig(10 * i + ell, 2000, p, measure, inst))[0]).p_hat
                for ell, p in enumerate(probes)])
            maps, _ = instrument_tomography(tables, probes, measure)
            errors = [np.sqrt(sum(np.linalg.norm(e - t) ** 2 for e, t in zip(fit, truth)))
                      for fit in (maps, self._unprojected(tables, probes, measure))]
            wins += errors[0] < errors[1]
        assert wins >= 9

    def test_sampled_outputs_are_flagged_projected(self):
        rng = np.random.default_rng(0)
        measure = tetrahedron_measure()
        probes = probe_states(2)
        for i in range(3):
            inst = _lossy_weak_measurement(rng)
            tables = np.stack([
                empirical_rates(sample_events(
                    ExperimentConfig(10 * i + ell, 2000, p, measure, inst))[0]).p_hat
                for ell, p in enumerate(probes)])
            _, report = instrument_tomography(tables, probes, measure)
            assert report.projection_distance > 1e-3 and "projected" in report.flags


def _oracle_selfcal(outputs, init_filters, init_sources, rtol=1e-10, max_iter=100):
    """Reference: the alternating least squares before filters and sources became
    stacks, with one lstsq per source and one apply_superop per (filter, source)."""
    n_filters, n_sources, d = outputs.shape[:3]
    basis = hermitian_basis(d)
    bas = np.stack([b.reshape(-1) for b in basis], axis=1)
    filters = [np.array(f, dtype=complex) for f in init_filters]
    sources = [np.array(s, dtype=complex) for s in init_sources]
    gauge = float(np.trace(sources[0]).real)

    def residual():
        return float(np.sqrt(sum(np.linalg.norm(apply_superop(f, s) - outputs[k, ell]) ** 2
                                 for k, f in enumerate(filters)
                                 for ell, s in enumerate(sources))))

    history = [residual()]
    converged, iterations = history[0] <= 1e-14, 0
    while not converged and iterations < max_iter:
        vpinv = np.linalg.pinv(np.stack([s.reshape(-1) for s in sources], axis=1))
        filters = [np.stack([outputs[k, ell].reshape(-1) for ell in range(n_sources)], axis=1)
                   @ vpinv for k in range(n_filters)]
        design = np.concatenate([f @ bas for f in filters], axis=0)
        a = np.concatenate([design.real, design.imag], axis=0)
        sources = []
        for ell in range(n_sources):
            b = np.concatenate([outputs[k, ell].reshape(-1) for k in range(n_filters)])
            coeff = np.linalg.lstsq(a, np.concatenate([b.real, b.imag]), rcond=None)[0]
            sources.append(np.tensordot(coeff, basis, axes=(0, 0)))
        tr = float(np.trace(sources[0]).real)
        if abs(tr) > 1e-300:
            sources = [gauge / tr * s for s in sources]
            filters = [f / (gauge / tr) for f in filters]
        iterations += 1
        history.append(residual())
        converged = abs(history[-2] - history[-1]) <= rtol * max(1.0, history[-2])
    return filters, sources, np.array(history), iterations, converged


class TestSelfCalibrationMatchesPerSourceOracle:
    """Stacked filter and source steps agree with one solve per source."""

    TOL = 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_sweeps_match(self, seed):
        rng = np.random.default_rng(130 + seed)
        d, n_filters, n_sources = 2 + seed % 2, 2 + seed % 2, 3 + seed % 3
        filters = [superop_from_kraus(random_kraus(d, 2, rng)) for _ in range(n_filters)]
        sources = [random_density(d, rng) for _ in range(n_sources)]
        outputs = np.array([[apply_superop(f, s) for s in sources] for f in filters])
        if seed >= 3:  # inconsistent data: the sweeps stop at a stationary point
            outputs = outputs + 1e-3 * rng.normal(size=outputs.shape)
        init_f = [f + 1e-2 * rng.normal(size=f.shape) for f in filters]
        result = self_calibrating_tomography(outputs, init_f, sources, max_iter=200)
        o_filters, o_sources, o_history, o_iterations, o_converged = _oracle_selfcal(
            outputs, init_f, sources, max_iter=200)
        assert (result.iterations, result.converged) == (o_iterations, o_converged)
        assert np.max(np.abs(result.residual_history - o_history)) <= self.TOL
        assert np.max(np.abs(np.stack(result.filters) - np.stack(o_filters))) <= self.TOL
        assert np.max(np.abs(np.stack(result.sources) - np.stack(o_sources))) <= self.TOL


class TestHugeFiniteRates:
    """Report norms of huge finite data are finite: each sum of squares is scaled first."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_instrument_report_scales_with_the_tables(self):
        measure = tetrahedron_measure()
        inst = Instrument(((np.diag([1.0, 0.0]),), (np.diag([0.0, 1.0]),)))
        probes = probe_states(2)
        tables = np.stack([joint_probabilities(inst, measure, p) for p in probes])
        tables[:, 1, 1] += 0.01  # no instrument gives these exactly
        _, small = instrument_tomography(tables, probes, measure)
        _, huge = instrument_tomography(1e200 * tables, probes, measure)
        assert small.residual > 1e-3 and small.projection_distance > 1e-3
        assert huge.residual == pytest.approx(1e200 * small.residual, rel=1e-12)
        assert huge.projection_distance == pytest.approx(1e200 * small.projection_distance,
                                                         rel=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_process_report_scales_with_the_outputs(self):
        probes = probe_states(2) + [np.eye(2) / 2]
        outputs = np.array([p.T for p in probes[:-1]] + [np.diag([1.0, 0.0])])  # no map fits
        _, small = process_tomography(probes, outputs)
        _, huge = process_tomography(probes, 1e200 * outputs)
        assert small.residual > 0.1
        assert huge.residual == pytest.approx(1e200 * small.residual, rel=1e-12)
        assert small.projection_distance == huge.projection_distance == 0.0


@st.composite
def _norm_case(draw, low, high):
    """(x, axis): a real or complex array of 0-3 axes, each entry 0 or +-10**u with u in
    [low, high], and an axis np.linalg.norm takes for it."""
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
    entry = st.just(0.0) | st.builds(lambda sign, u: sign * 10.0 ** u,
                                     st.sampled_from([-1.0, 1.0]), st.floats(low, high))
    parts = [draw(hnp.arrays(np.float64, shape, elements=entry))
             for _ in range(draw(st.sampled_from([1, 2])))]
    x = parts[0] if len(parts) == 1 else parts[0] + 1j * parts[1]
    axes = [None] + [0] * (x.ndim >= 1) + [(0, 1), (-2, -1)] * (x.ndim >= 2)
    return x, draw(st.sampled_from(axes))


def _ldexp(a, k):
    """a * 2**k, rounded once, for a real or complex a."""
    if np.iscomplexobj(a):
        return _ldexp(a.real, k) + 1j * _ldexp(a.imag, k)
    return np.ldexp(a, k)


class TestOneNorm:
    """Every residual, total and distance of a report is _scaled_norms: np.linalg.norm, bit for
    bit, computed on entries scaled by a power of two so that no square leaves the float range."""

    @settings(max_examples=300, deadline=None)
    @given(_norm_case(-75.0, 75.0))
    def test_equals_numpy_where_no_square_leaves_the_range(self, case):
        x, axis = case
        got, want = _scaled_norms(x, axis), np.linalg.norm(x, axis=axis)
        if axis is None:
            assert type(got) is float
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(_norm_case(-30.0, 30.0), st.sampled_from([-1060, -665, 665]))
    @example((np.array([1.0, 1.0]), None), 665)  # entries near 1e200
    @example((np.array([[1.0, 0.0], [6e3, 2e13]]), (0, 1)), -1074)  # subnormal entries
    def test_equals_rescaled_numpy_near_the_ends_of_the_range(self, case, k):
        # x = y * 2**k, with y's squares in range: its norm is 2**k times y's
        x, axis = case
        x = _ldexp(x, k)
        y = _ldexp(x, -k)
        want = np.ldexp(np.linalg.norm(y, axis=axis), k)
        assert np.asarray(_scaled_norms(x, axis)).tobytes() == np.asarray(want).tobytes()
        if k == 665 and np.abs(x).max(initial=0.0) > 1e160:
            with np.errstate(over="ignore"):  # the unscaled squares overflow
                assert not np.isfinite(np.linalg.norm(x, axis=axis)).all()


class TestOverflowIsNamed:
    """Huge finite inputs raise NumericalError before LAPACK or the JSON writer sees inf."""

    def test_selfcal_iterate_overflow(self, capfd):
        # sources of 1e-160 make the filter step divide by |s|^2 ~ 1e-320
        outputs = np.full((2, 2, 1, 1), 1e150, dtype=complex)
        with pytest.raises(NumericalError, match="a filter iterate is not finite"):
            self_calibrating_tomography(outputs, [np.eye(1)] * 2, [np.full((1, 1), 1e-160)] * 2)
        assert capfd.readouterr() == ("", "")

    def test_selfcal_initial_residual_overflow(self, capfd):
        half = 0.5 * np.eye(2)
        outputs = np.array([[half, half], [half, half]], dtype=complex)
        outputs[1, 0, 0, 0] = -1e308
        with pytest.raises(NumericalError, match="residual of the initial guesses"):
            self_calibrating_tomography(outputs, [np.eye(4)] * 2,
                                        [half, np.array([[0.3, 0.1], [0.1, 0.7]])])
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("where", ["outputs", "filters", "sources"])
    def test_selfcal_nonfinite_input_is_an_input_error(self, where):
        outputs = np.ones((2, 2, 1, 1), dtype=complex)
        filters, sources = [np.eye(1)] * 2, [np.eye(1)] * 2
        bad = np.full((1, 1), np.nan)
        if where == "outputs":
            outputs[0, 1] = bad
        elif where == "filters":
            filters = [np.eye(1), bad]
        else:
            sources = [np.eye(1), bad]
        with pytest.raises(ContractViolation, match="non-finite entries"):
            self_calibrating_tomography(outputs, filters, sources)

    def test_state_estimate_overflow(self):
        # the estimate 8e307 projects to the target trace -1.7e308: a distance beyond float range
        measure = QuantumMeasure([np.array([[1e-300]]), np.array([[0.0]])])
        with pytest.raises(NumericalError, match="PSD projection overflowed"):
            state_tomography(measure, [8e7, -1.7e308])

    def test_simplex_keeps_one_active_eigenvalue(self):
        # 1e17 - 1 rounds to 1e17, so no eigenvalue passes the strict test
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, dist = project_psd(np.diag([1e17, 0.0]), trace_target=1.0)
        assert np.isfinite(out).all() and np.isfinite(dist)
