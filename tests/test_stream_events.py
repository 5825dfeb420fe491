"""simulate streams its event log: fixed-size chunks, the same bytes and memo, bounded memory.

`write_events` draws, checks, formats, hashes and counts one chunk of shots at
a time.  Its bytes equal `event_log_to_csv` of the log drawn in one piece, its
counts.json memo holds that log's seed, counts and the sha256 of those bytes,
and the peak memory of the `simulate` and `tomo state` commands does not grow
with the shot count.
"""

import hashlib
import io
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qtomo
from qtomo import io as qio
from qtomo import simulate
from qtomo.errors import ContractViolation
from support import run_cli

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def _config(coincidences, seed, shots):
    rho = qtomo.density_from_state(np.array([0.6, 0.8j]))
    if coincidences:
        inst = qtomo.Instrument(((np.diag([1.0, 0.0]),), (np.diag([0.0, 1.0]),)))
        return qtomo.ExperimentConfig(seed, shots, rho, qtomo.tetrahedron_measure(), inst)
    return qtomo.ExperimentConfig(seed, shots, rho, qtomo.pauli_six_measure())


@st.composite
def _runs(draw):
    """(chunk constant C, shots): 0, 1, C - 1, C, C + 1, several chunks, or any count up to 10 C."""
    chunk = 4 * draw(st.integers(1, 16))
    edge = st.sampled_from([0, 1, chunk - 1, chunk, chunk + 1, 3 * chunk + 5])
    return chunk, draw(edge | st.integers(0, 10 * chunk))


@settings(max_examples=40, deadline=None)
@given(st.booleans(), st.integers(0, 2 ** 32), _runs())
def test_streamed_log_equals_the_in_memory_log(coincidences, seed, run):
    chunk, shots = run
    cfg = _config(coincidences, seed, shots)
    log, counts = qtomo.sample_events(cfg)
    expected = qtomo.event_log_to_csv(log).encode("ascii")  # at the default chunk size
    buffer = io.BytesIO()
    with mock.patch.object(simulate, "_CHUNK_SHOTS", chunk):
        memo = simulate.write_events(cfg, buffer)
    assert buffer.getvalue() == expected
    assert memo == {"seed": seed, "shots": shots, "counts": counts.tolist(),
                    "events_sha256": hashlib.sha256(expected).hexdigest()}


@pytest.mark.parametrize("coincidences", [False, True], ids=["detector", "coincidence"])
@pytest.mark.parametrize("chunk", [1, 7, 99_999, 100_001])
def test_any_chunk_size_writes_the_bytes_of_the_sampled_log(coincidences, chunk):
    # 250 000 shots: the shot column crosses the digit counts 1..6 inside chunks and at
    # their edges, and the last chunk is partial.  One-shot chunks take 2 000 shots (digit
    # counts 1..4); test_simulate's _csv_rows oracle test has the one-row chunks of 5 and 6.
    cfg = _config(coincidences, 11, 2_000 if chunk == 1 else 250_000)
    expected = qtomo.event_log_to_csv(qtomo.sample_events(cfg)[0]).encode("ascii")
    buffer = io.BytesIO()
    with mock.patch.object(simulate, "_CHUNK_SHOTS", chunk):
        simulate.write_events(cfg, buffer)
    assert buffer.getvalue() == expected


def _wide_config(seed, shots):
    """A d = 1 detector of 300 elements, the last 45 holding most of the rate: labels above 255."""
    rates = np.concatenate([np.full(255, 1e-3), np.full(45, (1.0 - 0.255) / 45)])
    return qtomo.ExperimentConfig(seed, shots, np.eye(1), qtomo.QuantumMeasure(rates[:, None, None]))


def _oracle_labels(cfg):
    """cfg's labels drawn in one piece: every uniform at once, one searchsorted, unravelled."""
    if cfg.instrument is None:
        table = np.concatenate([[0.0], qtomo.response_probabilities(cfg.measure, cfg.source)])
    else:
        table = qtomo.joint_probabilities(cfg.instrument, cfg.measure, cfg.source)
    u = np.random.Generator(np.random.Philox(key=cfg.seed)).random(cfg.shots)
    flat = np.searchsorted(simulate._prepare_cdf(table.reshape(-1)[1:]), u, side="right") + 1
    return np.stack(np.unravel_index(flat, table.shape), axis=1)


_ORACLE_CHUNK = 8


@pytest.mark.parametrize("shots", [0, 1, _ORACLE_CHUNK - 1, _ORACLE_CHUNK, _ORACLE_CHUNK + 1,
                                   3 * _ORACLE_CHUNK + 5])
@pytest.mark.parametrize("config", [lambda seed, shots: _config(False, seed, shots),
                                    lambda seed, shots: _config(True, seed, shots),
                                    _wide_config], ids=["detector", "coincidence", "300-outcomes"])
def test_reused_buffers_draw_the_labels_of_one_searchsorted(config, shots):
    # the sampler reuses one buffer per run for its uniforms, labels, counters and CSV rows
    cfg = config(5, shots)
    expected = _oracle_labels(cfg)
    with mock.patch.object(simulate, "_CHUNK_SHOTS", _ORACLE_CHUNK):
        log, counts = qtomo.sample_events(cfg)
        buffer = io.BytesIO()
        memo = simulate.write_events(cfg, buffer)
    assert np.array_equal(log.labels, expected)
    assert np.array_equal(counts, log.counts())
    oracle_log = qtomo.EventLog(cfg.seed, simulate.GENERATOR_NAME, log.bounds, expected)
    assert buffer.getvalue() == qtomo.event_log_to_csv(oracle_log).encode("ascii")
    assert memo == {"seed": cfg.seed, "shots": shots, "counts": oracle_log.counts().tolist(),
                    "events_sha256": hashlib.sha256(buffer.getvalue()).hexdigest()}


def test_every_chunk_is_checked_with_its_global_shot_index():
    empty = qtomo.EventLog(1, simulate.GENERATOR_NAME, (6,), np.zeros((0, 1), dtype=np.int64))
    chunks = [np.array([[1], [2], [3], [4]]), np.array([[5], [6], [7], [1]])]
    with pytest.raises(ContractViolation, match=r"shot 6: label 7 is outside \[0, n_elements=6\]"):
        simulate._write_csv(io.BytesIO(), empty, chunks)
    empty = qtomo.EventLog(1, simulate.GENERATOR_NAME, (2, 4), np.zeros((0, 2), dtype=np.int64))
    chunks = [np.array([[1, 1], [2, 4]]), np.array([[0, 0], [2, 5]])]
    with pytest.raises(ContractViolation, match=r"shot 3: element 5 is outside \[0, n_elements=4\]"):
        simulate._write_csv(io.BytesIO(), empty, chunks)


def _simulate_inputs(tmp_path):
    """Write a qubit source and a six-element detector; their paths."""
    source, device = tmp_path / "source.json", tmp_path / "device.json"
    qio.write_json_atomic(str(source),
                          qio.density_to_json(qtomo.density_from_state(np.array([0.6, 0.8j]))))
    qio.write_json_atomic(str(device),
                          qio.measure_to_json(qtomo.pauli_six_measure(), np.arange(1.0, 7.0)))
    return str(source), str(device)


def _simulate(tmp_path, out):
    source, device = _simulate_inputs(tmp_path)
    return run_cli(["simulate", source, device, "--shots", "10", "--out", str(out)])


def test_failed_simulate_leaves_no_event_log(tmp_path, monkeypatch):
    def fail(cfg, handle):
        handle.write(b"# seed=0\n")
        raise ContractViolation("drawn label out of range")

    monkeypatch.setattr(simulate, "write_events", fail)
    out = tmp_path / "run"
    assert _simulate(tmp_path, out).exit_code == 2
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


def test_outputs_get_the_usual_file_mode(tmp_path):
    out = tmp_path / "run"
    result = _simulate(tmp_path, out)
    assert result.exit_code == 0, result.output
    umask = os.umask(0)
    os.umask(umask)
    # as open() creates a file; a temp file from tempfile.mkstemp would be 0600
    assert {p.name: p.stat().st_mode & 0o777 for p in out.iterdir()} == {
        name: 0o666 & ~umask for name in ("counts.json", "events.csv", "manifest.json")}


# Runs the CLI in a fresh interpreter, then prints that process's peak resident
# set (VmHWM, in kB).  ru_maxrss of a child would also count the memory of the
# forking test process, which the child inherits before exec.
_PEAK_CHILD = """
import sys
from qtomo.cli import main
try:
    main(sys.argv[1:], prog_name="qtomo")
except SystemExit as exit_:
    assert not exit_.code, exit_.code
with open("/proc/self/status") as status:
    print(next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")))
"""


def _peak_mb(*argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _PEAK_CHILD, *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return int(proc.stdout) / 1024


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
def test_peak_memory_does_not_grow_with_shots(tmp_path):
    source, device = _simulate_inputs(tmp_path)
    peaks = {}
    for shots in (200_000, 2_000_000):
        bundle = tmp_path / str(shots)
        simulate_mb = _peak_mb("simulate", source, device, "--shots", str(shots),
                               "--seed", "5", "--out", str(bundle / "events"))
        qio.write_json_atomic(str(bundle / "measure.json"),
                              qio.measure_to_json(qtomo.pauli_six_measure()))
        tomo_mb = _peak_mb("tomo", "state", str(bundle), "--out", str(bundle / "state" / "report.json"))
        assert '"rates_from":"counts.json"' in (bundle / "state" / "manifest.json").read_text()
        peaks[shots] = simulate_mb, tomo_mb
    (sim_small, tomo_small), (sim_large, tomo_large) = peaks[200_000], peaks[2_000_000]
    # holding the 2e6-shot log would take about 100 MB more than the 2e5-shot log
    assert sim_large - sim_small <= 8, peaks
    assert tomo_large - tomo_small <= 4, peaks

