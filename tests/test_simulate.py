import hashlib
import io
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from qtomo import (
    ContractViolation,
    Detector,
    ExperimentConfig,
    Instrument,
    QuantumMeasure,
    density_from_state,
    empirical_rates,
    event_log_from_csv,
    event_log_to_csv,
    joint_probabilities,
    pauli_six_measure,
    projective_measure,
    response_probabilities,
    sample_coincidences,
    sample_detections,
    tetrahedron_measure,
)
from qtomo import simulate
from qtomo.simulate import EventLog
from support import random_density


def _sigma3_detector():
    return Detector(projective_measure(np.eye(2)), [1.0, -1.0])


class TestSampleDetections:
    def test_zero_shots(self):
        cfg = ExperimentConfig(1, 0, np.diag([0.5, 0.5]), _sigma3_detector())
        log, counts = sample_detections(cfg)
        assert len(log) == 0
        assert counts.sum() == 0

    @pytest.mark.parametrize("seed", [-1, 2 ** 128])
    def test_seed_outside_the_philox_key_range_rejected(self, seed):
        with pytest.raises(ContractViolation, match=r"seed must lie in \[0, 2\*\*128\)"):
            ExperimentConfig(seed, 10, np.diag([1.0, 0.0]), _sigma3_detector())

    def test_largest_seed_samples(self):
        cfg = ExperimentConfig(2 ** 128 - 1, 10, np.diag([1.0, 0.0]), _sigma3_detector())
        assert sample_detections(cfg)[1][1] == 10

    def test_deterministic_outcome(self):
        cfg = ExperimentConfig(2, 500, np.diag([1.0, 0.0]), _sigma3_detector())
        log, counts = sample_detections(cfg)
        assert np.all(log.labels == 1)
        assert counts[1] == 500

    def test_binomial_concentration(self):
        rho = density_from_state(np.array([1.0, 1.0]) / np.sqrt(2))
        cfg = ExperimentConfig(3, 10**6, rho, _sigma3_detector())
        _, counts = sample_detections(cfg)
        half = 5 * 10**5
        assert abs(counts[1] - half) <= 4 * np.sqrt(10**6 * 0.25)

    def test_seed_determinism_byte_identical(self):
        rng = np.random.default_rng(60)
        rho = random_density(2, rng)
        cfg = ExperimentConfig(11, 2000, rho, Detector(pauli_six_measure(), np.arange(6.0)))
        log1, _ = sample_detections(cfg)
        log2, _ = sample_detections(cfg)
        assert event_log_to_csv(log1) == event_log_to_csv(log2)

    def test_chunked_equals_sequential(self):
        rng = np.random.default_rng(61)
        rho = random_density(2, rng)
        cfg = ExperimentConfig(12, 5000, rho, Detector(pauli_six_measure(), np.arange(6.0)))
        seq, _ = sample_detections(cfg)
        for chunk in (64, 1000, 1237):
            chunked, _ = sample_detections(cfg, chunk_size=chunk)
            assert np.array_equal(seq.labels, chunked.labels)

    def test_consistency_error_decreases_with_shots(self):
        m = pauli_six_measure()
        rho = density_from_state(np.array([0.8, 0.6j]))
        p = response_probabilities(m, rho)
        det = Detector(m, np.arange(1.0, 7.0))
        errors = []
        for i, n in enumerate((10**3, 10**4, 10**5, 10**6)):
            cfg = ExperimentConfig(100 + i, n, rho, det)
            _, counts = sample_detections(cfg)
            errors.append(np.max(np.abs(counts[1:] / n - p)))
        assert all(a > b for a, b in zip(errors, errors[1:]))
        stderr = np.sqrt(p * (1.0 - p) / 10**6)
        _, counts = sample_detections(ExperimentConfig(103, 10**6, rho, det))
        assert np.all(np.abs(counts[1:] / 10**6 - p) <= 5 * stderr)

    def test_unnormalized_source_rejected(self):
        with pytest.raises(ContractViolation, match="unit intensity"):
            ExperimentConfig(1, 10, np.diag([1.0, 1.0]), _sigma3_detector())

    def test_negative_shots_rejected(self):
        with pytest.raises(ContractViolation):
            ExperimentConfig(1, -1, np.diag([0.5, 0.5]), _sigma3_detector())

    def test_incomplete_measure_rejected(self):
        half = QuantumMeasure([0.5 * np.eye(2)])
        det = Detector(half, [1.0])
        with pytest.raises(ContractViolation, match="sum"):
            sample_detections(ExperimentConfig(1, 10, np.diag([0.5, 0.5]), det))


def _projective_instrument():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    return Instrument(((p0,), (p1,)))


class TestCoincidences:
    def test_projective_joint_mass_on_diagonal(self):
        inst = _projective_instrument()
        det = _sigma3_detector()
        rho = np.diag([0.3, 0.7]).astype(complex)
        table = joint_probabilities(inst, det, rho)
        # branches 1, 2 align with detector elements 1, 2
        assert table[1, 1] == pytest.approx(0.3)
        assert table[2, 2] == pytest.approx(0.7)
        assert table[1, 2] == pytest.approx(0.0)
        assert table[2, 1] == pytest.approx(0.0)
        assert table[0].sum() == pytest.approx(0.0)

    def test_identity_instrument_marginal(self):
        inst = Instrument(((np.eye(2, dtype=complex),),))
        det = _sigma3_detector()
        rng = np.random.default_rng(62)
        rho = random_density(2, rng)
        table = joint_probabilities(inst, det, rho)
        assert table.sum(axis=1)[1] == pytest.approx(1.0)
        assert table[0].sum() == pytest.approx(0.0, abs=1e-12)

    def test_normalization_invariance(self):
        inst = _projective_instrument()
        det = _sigma3_detector()
        rho = np.diag([0.25, 0.75]).astype(complex)
        scaled = 1e-6 * rho / np.trace(1e-6 * rho).real
        assert np.allclose(
            joint_probabilities(inst, det, rho),
            joint_probabilities(inst, det, scaled),
        )

    def test_sampled_marginals(self):
        inst = _projective_instrument()
        det = Detector(tetrahedron_measure(), np.arange(1.0, 5.0))
        rho = np.diag([0.3, 0.7]).astype(complex)
        cfg = ExperimentConfig(13, 10**5, rho, det, inst)
        log, table = sample_coincidences(cfg)
        emp = empirical_rates(log)
        stderr = np.sqrt(0.3 * 0.7 / 10**5)
        assert abs(emp.p_hat.sum(axis=1)[1] - 0.3) <= 5 * stderr
        assert abs(emp.p_hat.sum(axis=1)[2] - 0.7) <= 5 * stderr

    def test_super_unital_instrument_rejected(self):
        inst = Instrument(((np.sqrt(1.2) * np.eye(2, dtype=complex),),))
        det = _sigma3_detector()
        cfg = ExperimentConfig(1, 10, np.diag([0.5, 0.5]), det, inst)
        with pytest.raises(ContractViolation, match="super-unital"):
            sample_coincidences(cfg)

    def test_determinism(self):
        inst = _projective_instrument()
        det = _sigma3_detector()
        cfg = ExperimentConfig(14, 1000, np.diag([0.4, 0.6]), det, inst)
        log1, _ = sample_coincidences(cfg)
        log2, _ = sample_coincidences(cfg)
        assert np.array_equal(log1.labels, log2.labels)


class TestEmpiricalRates:
    def test_constant_log(self):
        cfg = ExperimentConfig(4, 100, np.diag([1.0, 0.0]), _sigma3_detector())
        log, _ = sample_detections(cfg)
        emp = empirical_rates(log)
        assert emp.p_hat[1] == pytest.approx(1.0)
        assert emp.stderr[1] == pytest.approx(0.0)

    def test_formula_evaluation(self):
        from qtomo.simulate import EventLog

        labels = np.array([1] * 300 + [2] * 700)
        emp = empirical_rates(EventLog(0, "philox4x64", (2,), labels[:, None]))
        assert np.allclose(emp.p_hat[1:], [0.3, 0.7])
        assert np.allclose(emp.stderr[1:], np.sqrt(0.3 * 0.7 / 1000), atol=1e-12)
        assert emp.p_hat.sum() == pytest.approx(1.0)

    def test_joint_marginals_consistent(self):
        inst = _projective_instrument()
        det = _sigma3_detector()
        cfg = ExperimentConfig(15, 2000, np.diag([0.4, 0.6]), det, inst)
        log, _ = sample_coincidences(cfg)
        emp = empirical_rates(log)
        assert emp.p_hat.shape == emp.stderr.shape == (3, 3)
        assert np.allclose(emp.p_hat.sum(axis=1), log.counts().sum(axis=1) / 2000)
        assert np.allclose(emp.p_hat.sum(axis=0), log.counts().sum(axis=0) / 2000)
        assert emp.p_hat.sum() == pytest.approx(1.0)

    def test_empty_log_rejected(self):
        from qtomo.simulate import EventLog

        with pytest.raises(ContractViolation, match="empty"):
            empirical_rates(EventLog(0, "philox4x64", (2,), np.zeros((0, 1), dtype=np.int64)))


class TestCsvRoundTrip:
    def test_event_log(self):
        cfg = ExperimentConfig(5, 137, np.diag([0.5, 0.5]), _sigma3_detector())
        log, _ = sample_detections(cfg)
        text = event_log_to_csv(log)
        assert text.startswith("# seed=5\n# generator=philox4x64\n")
        back = event_log_from_csv(text)
        assert back.seed == log.seed
        assert back.bounds == log.bounds == (2,)
        assert np.array_equal(back.labels, log.labels)
        assert event_log_to_csv(back) == text

    def test_coincidence_log(self):
        inst = _projective_instrument()
        cfg = ExperimentConfig(6, 53, np.diag([0.5, 0.5]), _sigma3_detector(), inst)
        log, _ = sample_coincidences(cfg)
        back = event_log_from_csv(event_log_to_csv(log))
        assert np.array_equal(back.labels, log.labels)
        assert back.bounds == log.bounds == (2, 2)


def _csv_oracle(log) -> str:
    """Plain per-row formatter: the reference for event_log_to_csv."""
    lines = [f"# seed={log.seed}", f"# generator={log.generator}"]
    if len(log.bounds) == 2:
        lines += [f"# n_branches={log.bounds[0]}", f"# n_elements={log.bounds[1]}", "shot,j,k"]
        lines += [f"{shot},{j},{k}" for shot, (j, k) in enumerate(log.labels)]
    else:
        lines += [f"# n_elements={log.bounds[0]}", "shot,label"]
        lines += [f"{shot},{label}" for shot, (label,) in enumerate(log.labels)]
    return "\n".join(lines) + "\n"


def _sha256(text):
    return hashlib.sha256(text.encode("ascii")).hexdigest()


class TestCsvSnapshots:
    def test_small_coincidence_log(self):
        log = EventLog(5, "philox4x64", (2, 4), np.array([[1, 3], [0, 0], [2, 4]]))
        assert event_log_to_csv(log) == (
            "# seed=5\n# generator=philox4x64\n# n_branches=2\n# n_elements=4\nshot,j,k\n"
            "0,1,3\n1,0,0\n2,2,4\n"
        )

    def test_empty_logs(self):
        text = event_log_to_csv(EventLog(0, "philox4x64", (6,), np.zeros((0, 1), dtype=np.int64)))
        assert text == "# seed=0\n# generator=philox4x64\n# n_elements=6\nshot,label\n"
        back = event_log_from_csv(text)
        assert len(back) == 0 and back.bounds == (6,)
        empty = EventLog(0, "philox4x64", (1, 6), np.zeros((0, 2), dtype=np.int64))
        text = event_log_to_csv(empty)
        assert text == ("# seed=0\n# generator=philox4x64\n# n_branches=1\n# n_elements=6\n"
                        "shot,j,k\n")
        back = event_log_from_csv(text)
        assert back.labels.shape == (0, 2) and back.bounds == (1, 6)

    def test_wide_labels_and_shot_boundaries(self):
        # digests of the per-row formatter's output, fixed before the writer was vectorised
        shots = np.arange(1001)
        text = event_log_to_csv(EventLog(11, "philox4x64", (150,), (shots[:, None] * 37) % 151))
        lines = text.splitlines()
        assert lines[4:6] == ["0,0", "1,37"]
        assert lines[13:15] == ["9,31", "10,68"]
        assert lines[103:105] == ["99,39", "100,76"]
        assert lines[1003:] == ["999,119", "1000,5"]
        assert _sha256(text) == "032ed99ea28ce14f2fd9e650676513efbbad8ee881e10f7443e5bf7d1e6d3453"
        labels = np.stack([shots % 13, (shots * 37) % 151], axis=1)
        text = event_log_to_csv(EventLog(12, "philox4x64", (12, 150), labels))
        lines = text.splitlines()
        assert lines[14:16] == ["9,9,31", "10,10,68"]
        assert lines[104:106] == ["99,8,39", "100,9,76"]
        assert lines[1004:] == ["999,11,119", "1000,12,5"]
        assert _sha256(text) == "7bce369793426315e3aa60e143162349146e87ae75914981f393f754982396be"


_HEAD = "# seed=1\n# generator=philox4x64\n# n_elements=6\nshot,label\n"
_COINC_HEAD = "# seed=1\n# generator=philox4x64\n# n_branches=2\n# n_elements=4\nshot,j,k\n"


class TestCsvReaderContract:
    @pytest.mark.parametrize("text, invariant", [
        (_HEAD + "0,1\n1,x1\n", "x1"),
        (_HEAD + "0,1\n1,2.5\n", "2.5"),
        (_HEAD + "0,1\n1,\u00b2\n", "'ascii' codec"),
        (_HEAD + "0,1\n1,2,3\n", "must be 2 integers"),
        (_HEAD + "0,1,1\n1,2,3\n", "must be 2 integers each, got 3 fields"),
        (_HEAD + "0,1\n2,2\n", "row 1 has shot 2, expected 1"),
        (_HEAD + "1,1\n", "row 0 has shot 1"),
        (_HEAD + "0,1\n1,9\n", "label 9 is outside [0, n_elements=6]"),
        (_HEAD + "0,-1\n", "label -1 is outside"),
        (_COINC_HEAD + "0,1,1\n1,3,1\n", "branch 3 is outside [0, n_branches=2]"),
        (_COINC_HEAD + "0,1,5\n", "element 5 is outside [0, n_elements=4]"),
        (_COINC_HEAD + "0,1\n", "must be 3 integers"),
        ("# seed=1\n# n_elements=six\nshot,label\n0,1\n", "n_elements=six"),
        ("# seed=1\n0,1\n", "columns must be"),
        ("# seed=1\nshot,kind\n0,1\n", "columns must be"),
        ("# seed=1\n", "missing its column header"),
    ], ids=["non-integer", "float", "non-ascii", "ragged", "too-wide", "shot-gap", "shot-start",
            "label-range", "negative-label", "branch-range", "element-range", "too-narrow", "header-int",
            "no-columns", "unknown-columns", "header-only"])
    def test_malformed_log_rejected(self, text, invariant):
        with pytest.raises(ContractViolation) as info:
            event_log_from_csv(text)
        assert invariant in str(info.value)

    def test_constructors_check_label_range(self):
        with pytest.raises(ContractViolation, match="label 3 is outside"):
            EventLog(0, "philox4x64", (2,), np.array([[1], [3]]))
        with pytest.raises(ContractViolation, match="branch 2 is outside"):
            EventLog(0, "philox4x64", (1, 2), np.array([[2, 1]]))

    def test_missing_header_counts_default_to_label_maxima(self):
        log = event_log_from_csv("shot,j,k\n0,1,3\n1,2,0\n")
        assert (log.seed, log.generator, log.bounds) == (0, "philox4x64", (2, 3))


@st.composite
def _logs(draw):
    shots = draw(st.integers(0, 3000))
    n_elements = draw(st.integers(1, 200))
    seed = draw(st.integers(0, 2**63 - 1))
    labels = draw(hnp.arrays(np.int64, shots, elements=st.integers(0, n_elements)))
    if draw(st.booleans()):
        n_branches = draw(st.integers(1, 20))
        branches = draw(hnp.arrays(np.int64, shots, elements=st.integers(0, n_branches)))
        return EventLog(seed, "philox4x64", (n_branches, n_elements),
                        np.stack([branches, labels], axis=1))
    return EventLog(seed, "philox4x64", (n_elements,), labels[:, None])


class TestCsvProperties:
    @settings(max_examples=60, deadline=None)
    @given(_logs())
    def test_round_trip_and_oracle(self, log):
        # compare line lists: pytest's diff of two long strings is very slow
        text = event_log_to_csv(log)
        assert text.splitlines() == _csv_oracle(log).splitlines() and text.endswith("\n")
        back = event_log_from_csv(text)
        assert type(back) is type(log)
        for name in ("seed", "generator", "bounds"):
            assert getattr(back, name) == getattr(log, name)
        assert np.array_equal(back.labels, log.labels)
        assert event_log_to_csv(back).splitlines() == text.splitlines()


def _counter_oracle(labels):
    """Shots per label tuple, counted one shot at a time."""
    return Counter(map(tuple, np.asarray(labels).tolist()))


def _nonzero_counts(counts):
    return {index: int(n) for index, n in np.ndenumerate(np.asarray(counts)) if n}


class TestCountsProperty:
    @settings(max_examples=60, deadline=None)
    @given(_logs())
    @example(EventLog(0, "philox4x64", (3,), np.zeros((0, 1), dtype=np.int64)))
    @example(EventLog(0, "philox4x64", (2, 3), np.zeros((0, 2), dtype=np.int64)))
    def test_counts_equal_a_per_shot_counter(self, log):
        counts = log.counts()
        assert counts.shape == tuple(bound + 1 for bound in log.bounds)
        assert counts.sum() == len(log)
        assert _nonzero_counts(counts) == _counter_oracle(log.labels)

    @settings(max_examples=20, deadline=None)
    @given(st.booleans(), st.integers(0, 2 ** 32), st.integers(0, 3000), st.integers(1, 700))
    def test_write_events_memo_counts_equal_a_per_shot_counter(self, coincidences, seed,
                                                               shots, chunk):
        if coincidences:
            sample, cfg = sample_coincidences, _coincidence_config(seed, shots)
        else:
            sample, cfg = sample_detections, _detection_config(seed, shots)
        log, _ = sample(cfg)
        with mock.patch.object(simulate, "_CHUNK_SHOTS", chunk):
            memo = simulate.write_events(cfg, io.BytesIO())
        assert np.shape(memo["counts"]) == tuple(bound + 1 for bound in log.bounds)
        assert _nonzero_counts(memo["counts"]) == _counter_oracle(log.labels)


# values at digit-count edges and at the edges of the dtypes _csv_rows picks
_CSV_EDGES = [0, 9, 10, 99_999, 100_000, 255, 256, 65_535, 65_536, 2 ** 32 - 1, 2 ** 32,
              2 ** 63 - 1]


def _csv_rows_oracle(columns) -> bytes:
    return "".join(",".join(map(str, row)) + "\n" for row in zip(*columns)).encode("ascii")


@st.composite
def _csv_columns(draw):
    """1-3 equal-length int64 columns, each of one digit count or of mixed counts."""
    rows = draw(st.integers(0, 60))
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            width = draw(st.integers(1, 18))
            values = st.integers(10 ** (width - 1) if width > 1 else 0, 10 ** width - 1)
        else:
            values = st.sampled_from(_CSV_EDGES) | st.integers(0, 2 ** 63 - 1)
        columns.append(np.array(draw(st.lists(values, min_size=rows, max_size=rows)),
                                dtype=np.int64))
    return columns


class TestCsvRowsProperty:
    @settings(max_examples=100, deadline=None)
    @given(_csv_columns())
    @example([np.array(_CSV_EDGES), np.array(_CSV_EDGES[::-1]), np.arange(len(_CSV_EDGES))])
    @example([np.array([10, 99, 11]), np.array([99_999, 10_000, 12_345])])  # fixed widths
    @example([np.zeros(0, dtype=np.int64)] * 3)
    # one-row chunks whose shot has 5 or 6 digits, as write_events makes at chunk size 1
    @example([np.array([99_999]), np.array([6])])
    @example([np.array([100_000]), np.array([2]), np.array([4])])
    @example([np.array([249_999]), np.array([0])])
    def test_equals_the_per_row_join(self, columns):
        assert simulate._csv_rows(columns) == _csv_rows_oracle(columns)


@st.composite
def _cdfs_and_uniforms(draw):
    """A cdf of _prepare_cdf with zero-probability outcomes inside and at its end, and
    uniforms on its entries, next to them and anywhere in [0, 1]."""
    k = draw(st.sampled_from([1, 2, 6, 255, 256, 1000]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    weights = rng.random(k)
    weights[rng.random(k) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = 0.0
    weights[draw(st.integers(0, k - 1))] = 1.0  # some outcome can occur
    if k > 1 and draw(st.booleans()):
        weights[-draw(st.integers(1, k - 1)):] = 0.0  # impossible outcomes at the end
        weights[0] = 1.0
    cdf = simulate._prepare_cdf(weights / weights.sum())
    on = cdf[rng.integers(0, k, draw(st.integers(0, 50)))]
    u = np.concatenate([on, np.nextafter(on, 0.0), np.nextafter(on, 2.0), [0.0, 1.0],
                        draw(st.lists(st.floats(0.0, 1.0), max_size=20)), rng.random(500)])
    return cdf, u


class TestOutcomeLookupProperty:
    @settings(max_examples=80, deadline=None)
    @given(_cdfs_and_uniforms())
    # a uniform of 1 counts every entry: 255 still fits the uint8 count
    @example((simulate._prepare_cdf(np.full(255, 1 / 255)), np.array([1.0, 0.0])))
    @example((simulate._prepare_cdf(np.full(256, 1 / 256)), np.array([1.0, 0.0])))
    def test_equals_searchsorted(self, case):
        cdf, u = case
        idx = simulate._outcomes(cdf, u)
        assert idx.dtype == np.int64
        assert np.array_equal(idx, np.searchsorted(cdf, u, side="right"))


def _uniform_detector(k, trailing_zero):
    """k d = 1 elements of rate 1/k, then optionally one of rate 0."""
    elements = [np.array([[1.0 / k]])] * k + [np.array([[0.0]])] * trailing_zero
    return Detector(QuantumMeasure(elements), np.arange(1.0, k + 1.0 + trailing_zero))


def _top_uniforms(seed, shots, chunk_size=None):
    yield np.full(shots, 1.0 - 2.0 ** -53)  # the largest double Philox's random() returns


def _rounded_cdf_end(p):
    """The last entry of the plain normalized cumulative sum, before the tail is fixed."""
    p = np.asarray(p, dtype=float)
    return np.cumsum(p / p.sum())[-1]


class TestInverseCdfTail:
    """A uniform above the rounded end of the cumulative sum still draws a possible outcome."""

    @pytest.mark.parametrize("trailing_zero", [0, 1])
    def test_largest_uniform_draws_the_last_element(self, monkeypatch, trailing_zero):
        detector = _uniform_detector(10, trailing_zero)
        assert _rounded_cdf_end(response_probabilities(detector.measure, np.eye(1))) < 1.0
        monkeypatch.setattr(simulate, "_uniforms", _top_uniforms)
        log, counts = sample_detections(ExperimentConfig(1, 3, np.eye(1), detector))
        assert log.labels.tolist() == [[10]] * 3 and counts[10] == 3

    @pytest.mark.parametrize("trailing_zero", [0, 1])
    def test_largest_uniform_draws_the_last_coincidence(self, monkeypatch, trailing_zero):
        # nine elements: the table's null row and column change the sum's rounding
        inst = Instrument(((np.eye(1, dtype=complex),),))
        cfg = ExperimentConfig(1, 3, np.eye(1), _uniform_detector(9, trailing_zero), inst)
        assert _rounded_cdf_end(joint_probabilities(inst, cfg.detector, np.eye(1)).ravel()) < 1.0
        monkeypatch.setattr(simulate, "_uniforms", _top_uniforms)
        log, table = sample_coincidences(cfg)
        assert log.labels.tolist() == [[1, 9]] * 3 and table[1, 9] == 3

    def test_cdf_ends_at_one_from_the_last_possible_outcome(self):
        cdf = simulate._prepare_cdf([0.1] * 10 + [0.0, 0.0])
        assert np.cumsum([0.1] * 10)[-1] < 1.0
        assert cdf[9:].tolist() == [1.0, 1.0, 1.0]
        assert np.array_equal(cdf[:9], np.cumsum([0.1] * 9))


def _coincidence_config(seed, shots):
    det = Detector(tetrahedron_measure(), np.arange(1.0, 5.0))
    return ExperimentConfig(seed, shots, np.diag([0.3, 0.7]), det, _projective_instrument())


def _detection_config(seed, shots):
    rho = random_density(2, np.random.default_rng(seed))
    return ExperimentConfig(seed, shots, rho, Detector(pauli_six_measure(), np.arange(6.0)))


class TestChunkedSamplingProperty:
    @settings(max_examples=25, deadline=None)
    @given(st.booleans(), st.integers(0, 2 ** 32), st.integers(0, 3000), st.integers(1, 4000))
    def test_chunked_equals_sequential(self, coincidences, seed, shots, chunk):
        if coincidences:
            sample, cfg = sample_coincidences, _coincidence_config(seed, shots)
        else:
            sample, cfg = sample_detections, _detection_config(seed, shots)
        seq, seq_counts = sample(cfg)
        chunked, chunked_counts = sample(cfg, chunk_size=chunk)
        assert chunked.labels.dtype == seq.labels.dtype == np.int64
        assert np.array_equal(seq.labels, chunked.labels)
        assert np.array_equal(seq_counts, chunked_counts)
