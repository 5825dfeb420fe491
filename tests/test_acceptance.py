"""End-to-end acceptance suite.

Each test pins one release criterion at its stated tolerance and prints one
PASS/FAIL line (visible with pytest -s or in captured output).
"""

import functools
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import qtomo
from qtomo import io as qio
from support import (
    probe_states,
    random_density,
    random_hermitian,
    random_kraus,
    random_measure,
    random_unitary,
)


def _announce(number, label, budget_s):
    def decorator(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} [{label}]: FAIL")
                raise
            elapsed = time.monotonic() - started
            print(f"ACCEPTANCE {number} [{label}]: PASS ({elapsed:.2f}s)")
            assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s"

        return wrapper

    return decorator


@_announce(1, "detector response round trip", 5)
def test_detector_response_round_trip():
    # 20 random measures across d = 2, 3, 4; exact probabilities from d^2
    # independent probes must return every element to 1e-8 in max norm.
    rng = np.random.default_rng(1001)
    cases = [2] * 7 + [3] * 7 + [4] * 6
    for i, d in enumerate(cases):
        measure = random_measure(d, int(rng.integers(2, 6)), rng)
        probes = probe_states(d)
        rates = np.stack([qtomo.response_probabilities(measure, p) for p in probes])
        estimate, _ = qtomo.detector_tomography(probes, rates)
        for a, b in zip(estimate.elements, measure.elements):
            assert np.max(np.abs(a - b)) <= 1e-8, f"case {i} (d={d})"


@_announce(2, "state tomography exact and sampled", 30)
def test_state_tomography_accuracy_and_scaling():
    measure = qtomo.pauli_six_measure()
    # exact rates: trace distance 1e-10; every estimate, exact or sampled, is a state
    # (validate_density)
    rng = np.random.default_rng(1002)
    for _ in range(10):
        rho = random_density(2, rng, pure=True)
        est, _ = qtomo.state_tomography(measure, qtomo.response_probabilities(measure, rho))
        assert qtomo.trace_distance(est, rho) <= 1e-10
        assert qtomo.validate_density(est).ok
    # sampled rates: median over 20 seeds at N = 1e6 below 5e-3, improving
    # by a factor in [5, 20] over N = 1e4
    errors = {10**4: [], 10**6: []}
    for seed in range(20):
        state_rng = np.random.default_rng(10_000 + seed)
        rho = random_density(2, state_rng, pure=True)
        for shots in (10**4, 10**6):
            cfg = qtomo.ExperimentConfig(seed * 2 + (shots == 10**6), shots, rho, measure)
            _, counts = qtomo.sample_events(cfg)
            est, _ = qtomo.state_tomography(measure, counts[1:] / shots)
            assert qtomo.validate_density(est).ok
            errors[shots].append(qtomo.trace_distance(est, rho))
    med_small = float(np.median(errors[10**4]))
    med_large = float(np.median(errors[10**6]))
    assert med_large <= 5e-3
    assert 5.0 <= med_small / med_large <= 20.0


@_announce(3, "Born's rule in expectation form", 20)
def test_sampled_means_match_quantum_values():
    rng = np.random.default_rng(1003)
    shots = 10**6
    for case in range(10):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(2, 7))
        measure = random_measure(d, n, rng)
        scale = np.sort(rng.normal(size=n) * 2.0)
        detector = qtomo.Detector(measure, scale)
        rho = random_density(d, rng)
        cfg = qtomo.ExperimentConfig(3000 + case, shots, rho, measure)
        log, _ = qtomo.sample_events(cfg)
        values = scale[log.labels - 1]
        mean = float(np.mean(values))
        sigma_sample = float(np.std(values))
        target = qtomo.quantum_value(rho, qtomo.measured_quantity(detector)).real
        assert abs(mean - target) <= 5.0 * sigma_sample / np.sqrt(shots), f"case {case}"


@_announce(4, "Choi/Kraus machinery", 10)
def test_choi_kraus_machinery():
    rng = np.random.default_rng(1004)
    # 100 random CP maps: action error after the full round trip at 1e-10
    cases = [2] * 34 + [3] * 33 + [4] * 33
    for d in cases:
        e = qtomo.superop_from_kraus(random_kraus(d, int(rng.integers(1, 4)), rng))
        round_tripped = qtomo.superop_from_kraus(
            qtomo.kraus_from_choi(qtomo.choi_transform(e))
        )
        assert np.max(np.abs(round_tripped - e)) <= 1e-10
    # the transpose map is rejected as non completely positive
    transpose = qtomo.superop_from_action(lambda x: x.T, 2)
    report = qtomo.is_completely_positive(transpose)
    assert not report.cp
    assert report.min_choi_eigenvalue == pytest.approx(-1.0, abs=1e-12)
    # conjugation identity: the transformed map of X -> T X T* sends
    # X to T tr(T*X), checked at 1e-12 for 20 random pairs
    for _ in range(20):
        d = int(rng.integers(2, 5))
        t = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        ehat = qtomo.choi_transform(qtomo.superop_from_kraus([t]))
        lhs = qtomo.apply_superop(ehat, x)
        rhs = t * np.trace(t.conj().T @ x)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


@_announce(5, "Lindblad continuum limit", 30)
def test_lindblad_continuum_limit():
    # slicing converges at first order to the reference integrator
    for seed in range(5):
        rng = np.random.default_rng(20_000 + seed)
        d = 2 if seed % 2 == 0 else 4
        h = random_hermitian(d, rng)
        jump = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / (2 * d)
        model = qtomo.LindbladModel(h, (jump,), (0.5,))
        rho0 = random_density(d, rng)
        exact = qtomo.lindblad_evolve(model, rho0, 1.0, 1.0 / 16).final
        errors = [
            np.max(np.abs(qtomo.sliced_master(model, rho0, 1.0 / n, n).final - exact))
            for n in (512, 1024)
        ]
        ratio = errors[0] / errors[1]
        assert 1.8 <= ratio <= 2.2, f"model {seed}: ratio {ratio}"
    # pure dephasing off-diagonals follow exp(-2 gamma t) to 1e-6
    gamma = 0.7
    model = qtomo.LindbladModel(np.zeros((2, 2)), (qtomo.PAULI[3],), (gamma,))
    rho0 = 0.5 * np.ones((2, 2), dtype=complex)
    for gt in (0.5, 1.0, 2.0):
        t = gt / gamma
        final = qtomo.lindblad_evolve(model, rho0, t, t / 16).final
        assert abs(final[0, 1] - 0.5 * np.exp(-2.0 * gt)) <= 1e-6
    # Ehrenfest's theorem: along the von Neumann flow, d<A>/dt is the Poisson bracket
    # <H lie A>; the central difference at t = +-1e-4 gives it to 1e-6 relative, for 100
    # random (H, A, rho) with d = 2-4
    rng = np.random.default_rng(1005)
    for case in range(100):
        d = int(rng.integers(2, 5))
        h, a, rho = random_hermitian(d, rng), random_hermitian(d, rng), random_density(d, rng)
        before, after = (qtomo.quantum_value(state, a)
                         for state in qtomo.von_neumann_evolve(h, rho, [-1e-4, 1e-4]))
        bracket = qtomo.poisson_bracket(h, a, rho)
        assert abs((after - before) / 2e-4 - bracket) <= 1e-6 * abs(bracket), f"case {case}"


@_announce(6, "uncertainty suite", 20)
def test_uncertainty_suite():
    rng = np.random.default_rng(1006)
    # Robertson inequality on 10^4 random triples
    for d in (2, 3, 4):
        batch = 10_000 // 3 + 1
        for _ in range(batch):
            report = qtomo.robertson_check(
                random_density(d, rng), random_hermitian(d, rng), random_hermitian(d, rng)
            )
            assert report.lhs >= report.rhs - 1e-10
    # statistical variance dominates quantum variance on 10^4 random
    # detector/state pairs, with equality for projective detectors
    for case in range(10_000):
        d = 2 if case % 2 == 0 else 3
        n = int(rng.integers(2, 6))
        detector = qtomo.Detector(random_measure(d, n, rng), rng.normal(size=n))
        report = qtomo.statistical_vs_quantum(detector, random_density(d, rng))
        assert report.excess >= -1e-10
    for _ in range(100):
        d = int(rng.integers(2, 5))
        basis = random_unitary(d, rng)
        detector = qtomo.Detector(
            qtomo.projective_measure(basis), np.arange(1.0, d + 1.0)
        )
        report = qtomo.statistical_vs_quantum(detector, random_density(d, rng))
        assert abs(report.excess) <= 1e-10
    # mean squared error decomposition is an exact identity
    for _ in range(100):
        n = int(rng.integers(2, 6))
        detector = qtomo.Detector(random_measure(2, n, rng), rng.normal(size=n))
        rho = random_density(2, rng)
        x = random_hermitian(2, rng)
        p = qtomo.response_probabilities(detector.measure, rho)
        a_bar = np.trace(rho @ qtomo.measured_quantity(detector)).real
        x_bar = np.trace(rho @ x).real
        lhs = np.sum(p * np.abs(detector.scale[:, 0] - x_bar) ** 2)
        rhs = np.sum(p * np.abs(detector.scale[:, 0] - a_bar) ** 2) + (a_bar - x_bar) ** 2
        assert abs(lhs - rhs) <= 1e-12


@_announce(7, "instrument tomography", 60)
def test_instrument_tomography():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    instrument = qtomo.Instrument(((p0,), (p1,)))
    measure = qtomo.tetrahedron_measure()
    probes = probe_states(2)
    # exact statistics: branch maps recovered to 1e-8 on a basis
    tables = np.stack([qtomo.joint_probabilities(instrument, measure, p) for p in probes])[..., 1:]
    maps, _ = qtomo.instrument_tomography(tables, probes, measure)
    for j, proj in ((1, p0), (2, p1)):
        for b in qtomo.hermitian_basis(2):
            recovered = qtomo.apply_superop(maps[j], b)
            assert np.max(np.abs(recovered - proj @ b @ proj)) <= 1e-8
    # sampled branch marginals within 5 standard errors at N = 1e7
    shots = 10**7
    rho = np.diag([0.3, 0.7]).astype(complex)
    cfg = qtomo.ExperimentConfig(7007, shots, rho, measure, instrument)
    log, counts = qtomo.sample_events(cfg)
    rates = qtomo.rates_from_counts(counts, len(log))
    for branch, expected in ((1, 0.3), (2, 0.7)):
        stderr = np.sqrt(expected * (1.0 - expected) / shots)
        assert abs(rates.sum(axis=1)[branch] - expected) <= 5.0 * stderr


@_announce(8, "polarization optics", 5)
def test_polarization_optics():
    rng = np.random.default_rng(1008)
    # Malus' law for 100 random polarizer/state pairs at 1e-12
    for _ in range(100):
        phi = rng.normal(size=2) + 1j * rng.normal(size=2)
        phi /= np.linalg.norm(phi)
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        out = qtomo.apply_jones(
            qtomo.density_from_state(psi), np.outer(phi, phi.conj())
        )
        assert abs(np.trace(out).real - abs(phi.conj() @ psi) ** 2) <= 1e-12
    # cascade measures always validate
    for _ in range(20):
        depth_left = qtomo.Leaf(np.outer(phi, phi.conj()))
        t = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        t = t / (np.linalg.norm(t, 2) * (1.0 + rng.uniform(0.0, 1.0)))
        net = qtomo.Split(depth_left, qtomo.Split(qtomo.Leaf(t), qtomo.Leaf(np.eye(2))))
        measure = qtomo.cascade_measure(net)
        assert qtomo.validate_measure(measure).ok
    # single-input splitter output is exactly half of every block
    rho = random_density(2, rng)
    block = np.zeros((4, 4), dtype=complex)
    block[:2, :2] = rho
    expected = 0.5 * np.block([[rho, rho], [rho, rho]])
    assert np.array_equal(qtomo.beam_splitter(block), expected)
    # Stokes description of a qubit, for 100 random states and 100 random pure states: the
    # round trip returns rho to 1e-14, the degree of polarization P obeys P^2 = 2 tr rho^2 - 1
    # to 1e-12, and P = 1 for a pure state to 1e-12
    for i in range(200):
        pure = bool(i % 2)
        rho = random_density(2, rng, pure=pure)
        stokes = qtomo.density_to_stokes(rho)
        assert np.max(np.abs(qtomo.stokes_to_density(stokes) - rho)) <= 1e-14
        p = qtomo.degree_of_polarization(stokes)
        assert abs(p**2 - (2.0 * np.trace(rho @ rho).real - 1.0)) <= 1e-12
        assert not pure or abs(p - 1.0) <= 1e-12


@_announce(9, "pipeline determinism", 10)
def test_cli_pipeline_determinism(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         env.get("PYTHONPATH", "")]
    )
    rho = qtomo.density_from_state(np.array([0.6, 0.8], dtype=complex))
    qio.write_json_atomic(str(tmp_path / "source.json"), qio.density_to_json(rho))
    qio.write_json_atomic(
        str(tmp_path / "device.json"),
        qio.measure_to_json(qtomo.pauli_six_measure(), np.arange(1.0, 7.0)),
    )

    def pipeline(tag):
        run_dir = tmp_path / tag
        subprocess.run(
            [sys.executable, "-m", "qtomo", "simulate",
             str(tmp_path / "source.json"), str(tmp_path / "device.json"),
             "--shots", "100000", "--seed", "424242", "--out", str(run_dir)],
            check=True, env=env, capture_output=True,
        )
        bundle = tmp_path / f"{tag}_bundle"
        (bundle / "events").mkdir(parents=True)
        qio.write_json_atomic(str(bundle / "measure.json"),
                              qio.measure_to_json(qtomo.pauli_six_measure()))
        (bundle / "events" / "run.csv").write_text((run_dir / "events.csv").read_text())
        subprocess.run(
            [sys.executable, "-m", "qtomo", "tomo", "state", str(bundle),
             "--out", str(run_dir / "report.json")],
            check=True, env=env, capture_output=True,
        )
        subprocess.run(
            [sys.executable, "-m", "qtomo", "report", "uncertainty",
             str(tmp_path / "source.json"), str(tmp_path / "device.json"),
             "--out", str(run_dir / "uncertainty.json")],
            check=True, env=env, capture_output=True,
        )
        return run_dir

    first = pipeline("first")
    second = pipeline("second")
    for name in ("events.csv", "counts.json", "report.json", "uncertainty.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


@_announce(10, "detector tomography sampled", 15)
def test_detector_tomography_sampled_accuracy():
    # weighted detector tomography of sampled logs: over 20 seeds, the median Frobenius error
    # of the elements falls by a factor in [5, 20] from 1e4 to 1e6 shots per log
    for d, n_elements in ((2, 5), (3, 10)):
        errors = {10**4: [], 10**6: []}
        for seed in range(20):
            rng = np.random.default_rng(10_100 * d + seed)
            measure = random_measure(d, n_elements, rng)
            probes = probe_states(d) + [random_density(d, rng)]
            for shots in (10**4, 10**6):
                rates = []
                for p, probe in enumerate(probes):
                    cfg = qtomo.ExperimentConfig(1000 * seed + 2 * p + (shots == 10**6),
                                                 shots, probe, measure)
                    rates.append(qtomo.sample_events(cfg)[1][1:] / shots)
                estimate, _ = qtomo.detector_tomography(probes, np.stack(rates), shots=shots)
                errors[shots].append(np.linalg.norm(estimate.elements - measure.elements))
        ratio = float(np.median(errors[10**4]) / np.median(errors[10**6]))
        assert 5.0 <= ratio <= 20.0, f"d={d}: median error ratio {ratio:.3g}"
