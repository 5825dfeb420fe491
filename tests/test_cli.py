import functools
import gc
import hashlib
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qtomo
from qtomo import io as qio
from qtomo.errors import ContractViolation
from support import run_cli

# frozen output of the built tool for seed 2024, 10^6 shots on the fixture below
GOLDEN_COUNTS = [0, 326505, 6735, 166116, 166485, 120085, 214074]
# sha256 of that run's events.csv, recorded before the CSV writer was vectorised
GOLDEN_EVENTS_SHA256 = "51fd1ba046188b9036018cfa283fce158eed22aaa71760e719f1dafb4f182a32"
# sha256 of canonical JSON outputs (the model and bundle of the golden-bytes tests below),
# recorded before the JSON writer formatted each array in one call; the lindblad digest was
# re-pinned when the propagator moved to real coordinates and Paterson-Stockmeyer (CHANGES.md
# gives the moved values)
GOLDEN_TRAJECTORY_SHA256 = {
    "lindblad": "3cdd57fa0efa665dd6467a3833c2ecd7f22fe4fb9de44748d558e7a2d2e9b32a",
    "slice": "d1411cc14eccc3309d6e5a8eb3e4a5e3cbb3e3eeff640dd909bde44fc75bb097",
}
# sha256 of the process report of the golden-bytes test below; CHANGES.md gives the values
# that moved at each re-pin
GOLDEN_PROCESS_SHA256 = "d4c691527a7e20526d40b1eeedb1f50ff12bc7e9f34d4cfbe5c8eff3fc78780b"
# sha256 of the report outputs of TestReportBytes below, recorded before the analysis layer
# computed its quantum values, unit-intensity checks and spectral runs by one rule each
GOLDEN_REPORT_SHA256 = {
    "unc.json": "c524c96493dd4eb68ba196c7db8a6bd021d35030862c7515e644d0d6ed43a4f1",
    "unc.csv": "dfb9ba4fc55bca5f4cbd43ed0445ed0067d2ac45d474d897043827bc4bc65a91",
    "lines.json": "e3d8f9a08f17b9b5720293f1d2871987db29b9cb5c53403ca9f7889703f5e816",
    "lines.csv": "17dec20398fd81f184d9ec8f64175492c9e71c41d1c46180178582205e4ade66",
    "classify.json": "66cf4e5244f4ee130ce3ca4bb009dda6120b7a7e1e31781f522ce03e227e7ad3",
}


@pytest.fixture
def fixture_files(tmp_path):
    rho = qtomo.density_from_state(np.array([0.6, 0.8], dtype=complex))
    source = tmp_path / "source.json"
    qio.write_json_atomic(str(source), qio.density_to_json(rho))
    device = tmp_path / "device.json"
    qio.write_json_atomic(
        str(device),
        qio.measure_to_json(qtomo.pauli_six_measure(), np.arange(1.0, 7.0)),
    )
    return {"source": str(source), "device": str(device), "rho": rho, "dir": tmp_path}


class TestSimulate:
    def test_zero_shots_succeeds(self, fixture_files, tmp_path):
        out = tmp_path / "run0"
        result = run_cli([
            "simulate", fixture_files["source"], fixture_files["device"],
            "--shots", "0", "--seed", "1", "--out", str(out),
        ])
        assert result.exit_code == 0
        counts = json.loads((out / "counts.json").read_text())
        assert sum(counts["counts"]) == 0
        assert (out / "events.csv").exists()
        assert (out / "manifest.json").exists()

    def test_invalid_measure_exits_2_and_names_invariant(self, fixture_files, tmp_path):
        doc = qio.measure_to_json(qtomo.pauli_six_measure())
        doc["elements"] = doc["elements"][:3]
        bad = tmp_path / "bad.json"
        qio.write_json_atomic(str(bad), doc)
        out = tmp_path / "runbad"
        result = run_cli([
            "simulate", fixture_files["source"], str(bad),
            "--shots", "5", "--seed", "1", "--out", str(out),
        ])
        assert result.exit_code == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"]["type"] == "ContractViolation"
        assert "sum defect" in manifest["error"]["message"]

    @pytest.mark.parametrize("instrument", [False, True], ids=["detector", "instrument"])
    def test_measure_with_a_negative_element_exits_2(self, tmp_path, instrument):
        # elements that sum to the identity, but +-X/4 beside the projectors are not PSD
        p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        x = 0.25 * qtomo.PAULI[1]
        measure = qio.measure_to_json(qtomo.QuantumMeasure([p0, p1, x, -x]), np.arange(1.0, 5.0))
        device = measure
        if instrument:
            device = {"instrument": qio.instrument_to_json(qtomo.Instrument(((p0,), (p1,)))),
                      "detector": measure}
        qio.write_json_atomic(str(tmp_path / "source.json"), qio.density_to_json(np.eye(2) / 2))
        qio.write_json_atomic(str(tmp_path / "device.json"), device)
        out = tmp_path / "run"
        result = run_cli(["simulate", str(tmp_path / "source.json"), str(tmp_path / "device.json"),
                          "--shots", "100", "--seed", "1", "--out", str(out)])
        assert result.exit_code == 2, result.output
        message = json.loads((out / "manifest.json").read_text())["error"]["message"]
        assert message == (f"{tmp_path / 'device.json'}: element 2: PSD defect 2.500e-01 "
                           "exceeds --tol-psd 1e-09")
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]

    @pytest.mark.parametrize("instrument", [False, True], ids=["detector", "instrument"])
    def test_simulate_and_tomo_judge_hermiticity_by_tol_herm(self, fixture_files, tmp_path,
                                                             instrument):
        # element 0 is off its adjoint by 5e-10: above --tol-herm, within --tol-psd
        doc = qio.measure_to_json(qtomo.pauli_six_measure())
        doc["elements"][0][0, 1, 0] += 5e-10  # the real part of entry (0, 1)
        device = tmp_path / "device.json"
        qio.write_json_atomic(str(device), doc if not instrument else {
            "instrument": qio.instrument_to_json(qtomo.Instrument(((np.eye(2),),))),
            "detector": doc})
        bundle = tmp_path / "bundle"
        qio.write_json_atomic(str(bundle / "measure.json"), doc)
        qio.write_json_atomic(str(bundle / "rates.json"), {"rates": [1 / 6] * 6})
        for tol, code in (("1e-10", 2), ("1e-9", 0)):
            out = tmp_path / tol
            runs = {device: ["simulate", fixture_files["source"], str(device), "--shots", "10",
                             "--out", str(out / "simulate")],
                    bundle / "measure.json": ["tomo", "state", str(bundle),
                                              "--out", str(out / "tomo" / "report.json")]}
            for path, argv in runs.items():
                result = run_cli(["--tol-herm", tol, *argv])
                assert result.exit_code == code, result.output
                error = json.loads((out / argv[0] / "manifest.json").read_text())["error"]
                assert error is None if code == 0 else error["message"] == (
                    f"{path}: element 0: Hermitian defect 5.000e-10 exceeds --tol-herm 1e-10")

    def test_golden_counts_snapshot(self, fixture_files, tmp_path):
        out = tmp_path / "golden"
        result = run_cli([
            "simulate", fixture_files["source"], fixture_files["device"],
            "--shots", str(10**6), "--seed", "2024", "--out", str(out),
        ])
        assert result.exit_code == 0
        counts = json.loads((out / "counts.json").read_text())
        assert counts["counts"] == GOLDEN_COUNTS
        assert hashlib.sha256((out / "events.csv").read_bytes()).hexdigest() == GOLDEN_EVENTS_SHA256

    def test_seed_env_default(self, fixture_files, tmp_path, monkeypatch):
        monkeypatch.setenv("QTOMO_SEED", "2024")
        out = tmp_path / "envseed"
        result = run_cli([
            "simulate", fixture_files["source"], fixture_files["device"],
            "--shots", str(10**6), "--out", str(out),
        ])
        assert result.exit_code == 0
        counts = json.loads((out / "counts.json").read_text())
        assert counts["counts"] == GOLDEN_COUNTS

    @pytest.mark.parametrize("seed", ["-3", str(2 ** 128)])
    def test_seed_outside_the_key_range_exits_2(self, fixture_files, tmp_path, seed):
        out = tmp_path / "run"
        result = run_cli(["simulate", fixture_files["source"], fixture_files["device"],
                          "--shots", "10", "--seed", seed, "--out", str(out)])
        assert result.exit_code == 2, result.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == int(seed)
        assert manifest["error"]["type"] == "ContractViolation"
        assert "traceback" not in manifest["error"]

    def test_bad_seed_env_exits_2_naming_it(self, fixture_files, tmp_path, monkeypatch):
        monkeypatch.setenv("QTOMO_SEED", "abc")
        out = tmp_path / "run"
        result = run_cli(["simulate", fixture_files["source"], fixture_files["device"],
                          "--shots", "10", "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "QTOMO_SEED" in json.loads(result.stderr)["error"]["message"]
        assert json.loads((out / "manifest.json").read_text())["error"]["type"] == "ContractViolation"

    def test_coincidence_device(self, fixture_files, tmp_path):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        inst = qtomo.Instrument(((p0,), (p1,)))
        device = tmp_path / "inst.json"
        qio.write_json_atomic(str(device), {
            "instrument": qio.instrument_to_json(inst),
            "detector": qio.measure_to_json(qtomo.tetrahedron_measure(),
                                            np.arange(1.0, 5.0)),
        })
        out = tmp_path / "coinc"
        result = run_cli([
            "simulate", fixture_files["source"], str(device),
            "--shots", "1000", "--seed", "3", "--out", str(out),
        ])
        assert result.exit_code == 0
        header = (out / "events.csv").read_text().splitlines()[4]
        assert header == "shot,j,k"

    def _simulate(self, source, device, out):
        return run_cli(["simulate", source, str(device), "--shots", "1000", "--seed", "3",
                        "--out", str(out)])

    def test_coincidence_device_without_a_scale(self, fixture_files, tmp_path):
        # sampling never reads a scale, so the second detector may be a bare measure
        inst = qtomo.Instrument(((np.diag([1.0, 0.0]),), (np.diag([0.0, 1.0]),)))
        docs = {"scaled": qio.measure_to_json(qtomo.tetrahedron_measure(), np.arange(1.0, 5.0)),
                "bare": qio.measure_to_json(qtomo.tetrahedron_measure())}
        for name, detector in docs.items():
            qio.write_json_atomic(str(tmp_path / f"{name}.json"),
                                  {"instrument": qio.instrument_to_json(inst), "detector": detector})
            result = self._simulate(fixture_files["source"], tmp_path / f"{name}.json",
                                    tmp_path / name)
            assert result.exit_code == 0, result.output
        assert (tmp_path / "bare" / "events.csv").read_bytes() == \
            (tmp_path / "scaled" / "events.csv").read_bytes()

    def test_detection_device_with_repeated_scale_values(self, fixture_files, tmp_path):
        repeated = qio.measure_to_json(qtomo.pauli_six_measure(), [1.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        qio.write_json_atomic(str(tmp_path / "repeated.json"), repeated)
        result = self._simulate(fixture_files["source"], tmp_path / "repeated.json",
                                tmp_path / "repeated")
        assert result.exit_code == 0, result.output
        result = self._simulate(fixture_files["source"], fixture_files["device"], tmp_path / "distinct")
        assert result.exit_code == 0, result.output
        assert (tmp_path / "repeated" / "events.csv").read_bytes() == \
            (tmp_path / "distinct" / "events.csv").read_bytes()


class TestTomoState:
    def _bundle(self, tmp_path, rates):
        bundle = tmp_path / "state_problem"
        bundle.mkdir()
        qio.write_json_atomic(str(bundle / "measure.json"),
                              qio.measure_to_json(qtomo.pauli_six_measure()))
        qio.write_json_atomic(str(bundle / "rates.json"), {"rates": list(rates)})
        return bundle

    def test_exact_rate_bundle_recovers_fixture(self, tmp_path):
        rho = qtomo.density_from_state(np.array([0.6, 0.8], dtype=complex))
        rates = qtomo.response_probabilities(qtomo.pauli_six_measure(), rho)
        bundle = self._bundle(tmp_path, rates)
        out = tmp_path / "report.json"
        result = run_cli(["tomo", "state", str(bundle), "--out", str(out)])
        assert result.exit_code == 0
        report = json.loads(out.read_text())
        est = qio.density_from_json(report["estimate"])
        assert qtomo.trace_distance(est, rho) <= 1e-10
        assert report["rank"] == 4

    def test_rates_summing_below_zero_exit_2(self, tmp_path):
        # the least-squares estimate has trace -0.4: no density has it
        bundle = self._bundle(tmp_path, [0.5, -0.9, 0.0, 0.0, 0.0, 0.0])
        out = tmp_path / "run" / "report.json"
        result = run_cli(["tomo", "state", str(bundle), "--out", str(out)])
        assert result.exit_code == 2, result.output
        error = json.loads((out.parent / "manifest.json").read_text())["error"]
        assert error["type"] == "ContractViolation" and "rates sum to -0.4" in error["message"]
        assert not out.exists()

    def test_missing_events_exits_2(self, tmp_path):
        bundle = tmp_path / "empty_problem"
        bundle.mkdir()
        qio.write_json_atomic(str(bundle / "measure.json"),
                              qio.measure_to_json(qtomo.pauli_six_measure(), np.arange(1.0, 7.0)))
        out = tmp_path / "report.json"
        result = run_cli(["tomo", "state", str(bundle), "--out", str(out)])
        assert result.exit_code == 2
        # an events directory without logs is rejected the same way by every mode
        (bundle / "events").mkdir()
        (bundle / "probes").mkdir()
        qio.write_json_atomic(str(bundle / "probes" / "p0.json"), qio.density_to_json(np.eye(2) / 2))
        for mode in ("state", "instrument"):
            result = run_cli(["tomo", mode, str(bundle), "--out", str(out)])
            assert result.exit_code == 2, mode
            assert "no events" in json.loads(result.stderr)["error"]["message"]

    def test_rank_deficient_design_exits_3(self, tmp_path):
        bundle = tmp_path / "deficient"
        bundle.mkdir()
        qio.write_json_atomic(
            str(bundle / "measure.json"),
            qio.measure_to_json(qtomo.projective_measure(np.eye(2))),
        )
        qio.write_json_atomic(str(bundle / "rates.json"), {"rates": [0.5, 0.5]})
        out = tmp_path / "report.json"
        result = run_cli(["tomo", "state", str(bundle), "--out", str(out)])
        assert result.exit_code == 3

    def test_events_based_bundle(self, fixture_files, tmp_path):
        sim_out = tmp_path / "sim"
        result = run_cli([
            "simulate", fixture_files["source"], fixture_files["device"],
            "--shots", "200000", "--seed", "7", "--out", str(sim_out),
        ])
        assert result.exit_code == 0
        bundle = tmp_path / "from_events"
        (bundle / "events").mkdir(parents=True)
        qio.write_json_atomic(str(bundle / "measure.json"),
                              qio.measure_to_json(qtomo.pauli_six_measure()))
        (bundle / "events" / "run.csv").write_text((sim_out / "events.csv").read_text())
        out = tmp_path / "report2.json"
        result = run_cli(["tomo", "state", str(bundle), "--out", str(out)])
        assert result.exit_code == 0
        est = qio.density_from_json(json.loads(out.read_text())["estimate"])
        assert qtomo.trace_distance(est, fixture_files["rho"]) <= 0.02

    @pytest.mark.parametrize("shape", [(2, 3), (2, 6), (3, 2)])
    def test_rates_of_more_than_one_row_exit_2(self, tmp_path, shape):
        # a (2, 3) table of the six rates was flattened and reconstructed, and a (2, 6) one was
        # refused for its count of 12 rates
        bundle = tmp_path / "state_problem"
        bundle.mkdir()
        qio.write_json_atomic(str(bundle / "measure.json"),
                              qio.measure_to_json(qtomo.pauli_six_measure()))
        qio.write_json_atomic(str(bundle / "rates.json"),
                              {"rates": np.full(shape, 1.0 / 6.0).tolist()})
        out = tmp_path / "run" / "report.json"
        result = run_cli(["tomo", "state", str(bundle), "--out", str(out)])
        assert result.exit_code == 2, result.output
        error = json.loads((out.parent / "manifest.json").read_text())["error"]
        assert error["type"] == "ContractViolation"
        assert error["message"] == (
            f"{bundle / 'rates.json'}: 'rates' has shape {shape}; a state bundle takes one row "
            "of rates, of shape (K,) or (1, K)")
        assert not out.exists()

    def test_one_row_of_rates_is_the_rate_vector(self, tmp_path):
        rates = qtomo.response_probabilities(qtomo.pauli_six_measure(), np.diag([0.25, 0.75]))
        reports = []
        for name, table in (("flat", rates), ("row", rates[None])):
            (tmp_path / name).mkdir()
            bundle = self._bundle(tmp_path / name, [])
            qio.write_json_atomic(str(bundle / "rates.json"), {"rates": table})
            out = tmp_path / name / "report.json"
            assert run_cli(["tomo", "state", str(bundle), "--out", str(out)]).exit_code == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


_STATE_HEAD = "# seed=1\n# generator=philox4x64\n# n_elements=6\nshot,label\n"
_VALID_ROWS = "".join(f"{shot},{shot % 6 + 1}\n" for shot in range(12))


class TestEventLogContract:
    """Malformed event logs exit 2, leave a manifest and name the broken invariant."""

    def _state_bundle(self, tmp_path, texts):
        bundle = tmp_path / "bundle"
        (bundle / "events").mkdir(parents=True)
        qio.write_json_atomic(str(bundle / "measure.json"),
                              qio.measure_to_json(qtomo.pauli_six_measure()))
        for i, text in enumerate(texts):
            (bundle / "events" / f"run{i}.csv").write_text(text)
        return bundle

    def _expect_exit_2(self, tmp_path, mode, bundle, *invariants):
        out = tmp_path / "out" / "report.json"
        result = run_cli(["tomo", mode, str(bundle), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert not out.exists()
        error = json.loads((out.parent / "manifest.json").read_text())["error"]
        assert error["type"] == "ContractViolation"
        for text in invariants:
            assert text in error["message"]

    @pytest.mark.parametrize("rows, invariant", [
        (_VALID_ROWS + "12,x1\n", "could not convert string 'x1'"),
        (_VALID_ROWS + "12,1,1\n", "must be 2 integers each"),
        (_VALID_ROWS + "13,1\n", "row 12 has shot 13, expected 12"),
        (_VALID_ROWS + "12,9\n", "label 9 is outside [0, n_elements=6]"),
    ], ids=["non-integer", "ragged", "shot-column", "label-range"])
    def test_malformed_state_log(self, tmp_path, rows, invariant):
        bundle = self._state_bundle(tmp_path, [_STATE_HEAD + rows])
        self._expect_exit_2(tmp_path, "state", bundle, "run0.csv", invariant)

    def test_undecodable_log(self, tmp_path):
        bundle = self._state_bundle(tmp_path, [])
        (bundle / "events" / "run0.csv").write_bytes((_STATE_HEAD + "0,1\n").encode() + b"1,\xff\n")
        self._expect_exit_2(tmp_path, "state", bundle, "run0.csv", "xff")

    def test_branch_above_header_count(self, tmp_path):
        det = qtomo.Detector(qtomo.tetrahedron_measure(), np.arange(1.0, 5.0))
        bundle = tmp_path / "bundle"
        (bundle / "probes").mkdir(parents=True)
        (bundle / "events").mkdir()
        qio.write_json_atomic(str(bundle / "measure.json"),
                              qio.measure_to_json(det.measure, det.scale))
        qio.write_json_atomic(str(bundle / "probes" / "p0.json"),
                              qio.density_to_json(np.eye(2) / 2))
        (bundle / "events" / "p0.csv").write_text(
            "# seed=1\n# generator=philox4x64\n# n_branches=2\n# n_elements=4\nshot,j,k\n"
            "0,1,1\n1,3,2\n")
        self._expect_exit_2(tmp_path, "instrument", bundle,
                            "p0.csv", "branch 3 is outside [0, n_branches=2]")

    def test_detection_logs_of_another_size(self, tmp_path):
        from support import probe_states

        head = "# seed=1\n# generator=philox4x64\n# n_elements={}\nshot,label\n"
        rows = "".join(f"{shot},{shot % 4 + 1}\n" for shot in range(40))
        bundle = self._state_bundle(tmp_path, [head.format(n) + rows for n in (4, 4, 6, 4)])
        (bundle / "probes").mkdir()
        for i, probe in enumerate(probe_states(2)):
            qio.write_json_atomic(str(bundle / "probes" / f"p{i}.json"), qio.density_to_json(probe))
        self._expect_exit_2(tmp_path, "detector", bundle,
                            "run2.csv: counts of shape (7,), but run0.csv has (5,)")

    def test_coincidence_logs_of_another_size(self, tmp_path):
        # the odd log's counts come from its counts.json memo
        det = qtomo.Detector(qtomo.tetrahedron_measure(), np.arange(1.0, 5.0))
        bundle = tmp_path / "bundle"
        (bundle / "probes").mkdir(parents=True)
        (bundle / "events").mkdir()
        qio.write_json_atomic(str(bundle / "measure.json"),
                              qio.measure_to_json(det.measure, det.scale))
        head = "# seed=1\n# generator=philox4x64\n# n_branches={}\n# n_elements=4\nshot,j,k\n"
        rows = "".join(f"{shot},{shot % 2 + 1},{shot % 4 + 1}\n" for shot in range(40))
        for i, n_branches in enumerate((2, 3)):
            qio.write_json_atomic(str(bundle / "probes" / f"p{i}.json"),
                                  qio.density_to_json(np.eye(2) / 2))
            (bundle / "events" / f"p{i}.csv").write_text(head.format(n_branches) + rows)
        log = (bundle / "events" / "p1.csv").read_bytes()
        counts = qtomo.event_log_from_csv(log.decode()).counts()
        qio.write_json_atomic(str(bundle / "events" / "counts.json"), {
            "seed": 1, "shots": 40, "counts": counts.tolist(),
            "events_sha256": hashlib.sha256(log).hexdigest()})
        self._expect_exit_2(tmp_path, "instrument", bundle,
                            "p1.csv: counts of shape (4, 5), but p0.csv has (3, 5)")
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["event_logs"]["p1.csv"]["rates_from"] == "counts.json"

    def test_coincidence_log_in_state_bundle(self, tmp_path):
        bundle = self._state_bundle(tmp_path, [
            "# seed=1\n# generator=philox4x64\n# n_branches=1\n# n_elements=6\nshot,j,k\n0,1,1\n"])
        self._expect_exit_2(tmp_path, "state", bundle, "is a coincidence log")

    def test_state_bundle_takes_one_log(self, tmp_path):
        bundle = self._state_bundle(tmp_path, [_STATE_HEAD + _VALID_ROWS] * 2)
        self._expect_exit_2(tmp_path, "state", bundle,
                            "exactly one event log", "found 2")


class TestMalformedJson:
    """Undecodable JSON and malformed arrays exit 2 and leave a ContractViolation manifest."""

    def _expect_exit_2(self, args, manifest, *invariants):
        result = run_cli(args)
        assert result.exit_code == 2, result.output
        error = json.loads(manifest.read_text())["error"]
        assert error["type"] == "ContractViolation"
        for text in invariants:
            assert text in error["message"]

    @pytest.mark.parametrize("text, invariant", [
        (b'{"matrix": [[1,0],[0', "not a JSON document"),
        (b'{"matrix": [[1,0],[0]]}', "rows differ in length: [1, 2]"),
        (b'{"matrix": [1, 0]}', "nonempty array of rows"),
        (b'{"matrix": [[1,0],[0,1]], "note": "\xff"}', "not a JSON document"),
        (b'5', "density document must be a JSON object, got int"),
        (b'{"matrix": [[1,0],[0,0]], "dim": "x"}', "declared dim must be an integer, got 'x'"),
        (b"[" * 10**5 + b"]" * 10**5, "not a JSON document: maximum recursion depth"),
    ], ids=["truncated", "ragged", "flat", "undecodable", "scalar", "string-dim",
            "deeply-nested"])
    def test_malformed_source(self, fixture_files, tmp_path, text, invariant):
        source = tmp_path / "bad.json"
        source.write_bytes(text)
        out = tmp_path / "run"
        self._expect_exit_2(["simulate", str(source), fixture_files["device"],
                                     "--shots", "5", "--seed", "1", "--out", str(out)],
                            out / "manifest.json", invariant)

    @pytest.mark.parametrize("rates", [
        [0.5, "x", 0.5, 0.5, 0.5, 0.5],
        [[0.5, 0.5, 0.5], [0.5, 0.5]],
        [0.5, None, 0.5, 0.5, 0.5, 0.5],
        0.5,
        [[[0.5] * 6]],
        [1 / 6] * 5 + [True],
    ], ids=["non-numeric", "ragged", "null", "scalar", "three-axes", "boolean"])
    def test_malformed_rates(self, tmp_path, rates):
        bundle = tmp_path / "bundle"
        bundle.mkdir()
        qio.write_json_atomic(str(bundle / "measure.json"),
                              qio.measure_to_json(qtomo.pauli_six_measure()))
        (bundle / "rates.json").write_text(json.dumps({"rates": rates}))
        out = tmp_path / "report.json"
        self._expect_exit_2(["tomo", "state", str(bundle), "--out", str(out)],
                            tmp_path / "manifest.json",
                            "rates.json", "'rates' must be a rectangular array of finite numbers")

    @pytest.mark.parametrize("tables", [
        [[[0.5, "x"]]],
        [[[0.5, 0.5], [0.5]]],
        [[0.5, 0.5]],
        [[[0.0] * 5, [0.0, 0.25, 0.25, 0.25, True]]],
    ], ids=["non-numeric", "ragged", "two-axes", "boolean"])
    def test_malformed_tables(self, tmp_path, tables):
        det = qtomo.Detector(qtomo.tetrahedron_measure(), np.arange(1.0, 5.0))
        bundle = tmp_path / "bundle"
        (bundle / "probes").mkdir(parents=True)
        qio.write_json_atomic(str(bundle / "probes" / "p0.json"),
                              qio.density_to_json(np.eye(2) / 2))
        qio.write_json_atomic(str(bundle / "measure.json"),
                              qio.measure_to_json(det.measure, det.scale))
        (bundle / "tables.json").write_text(json.dumps({"tables": tables}))
        out = tmp_path / "report.json"
        self._expect_exit_2(["tomo", "instrument", str(bundle), "--out", str(out)],
                            tmp_path / "manifest.json",
                            "tables.json", "with 3 axes")


_EYE2 = [[1, 0], [0, 1]]
_EYE4 = np.eye(4).tolist()
_STATE = '{"matrix": [[1, 0], [0, 0]]}'
_MEASURE = '{"elements": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]}'
_UNCERTAINTY = "report uncertainty {}/s.json {}/d.json --out {}/run/unc.json"
_SIMULATE = "simulate {}/s.json {}/d.json --shots 10 --out {}/run"


def _model(**fields):
    return json.dumps({"H": [[1, 0], [0, 0]], "rho0": [[1, 0], [0, 0]], **fields})


def _selfcal(filters, sources):
    return json.dumps({"outputs": [[_EYE2] * 2] * 2, "init_filters": filters,
                       "init_sources": sources})


class TestInputRefusals:
    """Each input error the CLI checks itself exits 2 with its message on stderr and in the
    manifest; a malformed option value is a usage error, with no manifest.  A malformed
    detector scale is named as the measure's 'scale'."""

    # (files to write under the run's directory, argv with {} for that directory, message)
    CASES = {
        "process-without-probes": (
            {"b/probes/notes.txt": "", "b/outputs/p.json": _STATE},
            "tomo process {}/b --out {}/run/report.json", "no states found in {}/b/probes"),
        "probes-of-two-sizes": (
            {"b/probes/p0.json": _STATE, "b/probes/p1.json": '{"matrix": %s}' % np.eye(3).tolist(),
             "b/outputs/p0.json": _STATE, "b/outputs/p1.json": _STATE},
            "tomo process {}/b --out {}/run/report.json",
            "{}/b/probes/p1.json: is 3x3, expected 2x2"),
        "uncertainty-one-input": (
            {}, "report uncertainty {}/s.json --out {}/run/unc.json",
            "report uncertainty needs SOURCE and DETECTOR files"),
        "boolean-scale": (
            {"s.json": _STATE, "d.json": _MEASURE[:-1] + ', "scale": [true, false]}'},
            _UNCERTAINTY, "{}/d.json: measure 'scale': matrix must be a nonempty array of rows"),
        "ragged-scale": (
            {"s.json": _STATE, "d.json": _MEASURE[:-1] + ', "scale": [[1], [2, 3]]}'},
            _UNCERTAINTY, "{}/d.json: measure 'scale': matrix rows differ in length: [1, 2]"),
        "lines-two-inputs": (
            {}, "report lines {}/a.json {}/b.json --out {}/run/lines.json",
            "report lines needs one Hamiltonian file"),
        "classify-no-input": (
            {}, "report classify --out {}/run/class.json",
            "report classify needs one channel file"),
        "instrument-without-branches": (
            {"s.json": _STATE, "d.json": '{"instrument": {}, "detector": %s}' % _MEASURE},
            "simulate {}/s.json {}/d.json --shots 10 --out {}/run",
            "{}/d.json: instrument document needs a 'branches' field"),
        "non-hermitian-hamiltonian": (
            {"m.json": _model(H=[[0, 1], [0, 0]])},
            "dynamics {}/m.json --t 1 --dt 0.1 --out {}/run/t.json",
            "{}/m.json: H: Hermitian defect 1.000e+00 exceeds --tol-herm 1e-10"),
        "non-hermitian-initial-state": (
            {"m.json": _model(H=[[1, 0], [0, -1]], rho0=[[1, 5], [0, -3]])},
            "dynamics {}/m.json --t 1 --dt 0.1 --out {}/run/t.json",
            "{}/m.json: rho0: Hermitian defect 5.000e+00 exceeds --tol-herm 1e-10"),
        "one-rate-for-two-jumps": (
            {"m.json": _model(lindblad={"L": [[[0, 1], [0, 0]], [[0, 0], [1, 0]]],
                                        "gamma": [1]})},
            "dynamics {}/m.json --t 1 --dt 0.1 --out {}/run/t.json",
            "{}/m.json: need one rate per jump operator"),
        "negative-hbar": (
            {"m.json": _model(hbar=-1)},
            "dynamics {}/m.json --t 1 --dt 0.1 --out {}/run/t.json",
            "{}/m.json: hbar must be positive"),
        "one-filter-for-two-rows": (
            {"b/selfcal.json": _selfcal([_EYE4], [_EYE2, _EYE2])},
            "tomo selfcal {}/b --out {}/run/report.json",
            "initial guesses must match the output grid"),
        "sources-of-another-size": (
            {"b/selfcal.json": _selfcal([_EYE4, _EYE4], [np.eye(3).tolist()] * 2)},
            "tomo selfcal {}/b --out {}/run/report.json",
            "outputs and initial sources must all be 2x2 matrices"),
        "dt-not-a-number": (
            {"m.json": _model()}, "dynamics {}/m.json --t 1 --dt abc --out {}/run/t.json",
            "argument --dt: not a finite number: 'abc'"),
        "negative-tol-herm": (
            {"b/measure.json": _MEASURE, "b/rates.json": '{"rates": [0.5, 0.5]}'},
            "--tol-herm -1 tomo state {}/b --out {}/run/report.json",
            "argument --tol-herm: a tolerance must be 0 or more, got '-1'"),
        "negative-tol-psd": (
            {"s.json": _STATE, "d.json": _MEASURE}, "--tol-psd -1 " + _SIMULATE,
            "argument --tol-psd: a tolerance must be 0 or more, got '-1'"),
        "negative-rtol": (
            {"m.json": _model()}, "--rtol -5 dynamics {}/m.json --t 1 --dt 0.1 --out {}/run/t.json",
            "argument --rtol: a tolerance must be 0 or more, got '-5'"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_refused_with_exit_2(self, tmp_path, case):
        files, argv, message = self.CASES[case]
        for name, text in files.items():
            (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / name).write_text(text)
        message = message.replace("{}", str(tmp_path))
        result = run_cli(argv.replace("{}", str(tmp_path)).split())
        assert result.exit_code == 2, result.output
        manifest = tmp_path / "run" / "manifest.json"
        if message.startswith("argument "):  # argparse refuses it before any command runs
            assert message in result.stderr and not manifest.exists()
            return
        assert json.loads(result.stderr)["error"]["message"] == message
        error = json.loads(manifest.read_text())["error"]
        assert error == {"type": "ContractViolation", "message": message}


_DEVICE = {"instrument": {"branches": [{"kraus": [_EYE2]}]}, "detector": json.loads(_MEASURE)}
_DYNAMICS = "dynamics {}/m.json --t 1 --dt 0.1 --out {}/run/t.json"
_JUMPS = json.loads(_model(lindblad={"L": [[[0, 1], [0, 0]]], "gamma": [1]}))
_SELFCAL = "tomo selfcal {}/b --out {}/run/report.json"


class TestRequiredFields:
    """A document without a field it needs exits 2 with a ContractViolation whose message names
    the file, the document kind and the field; rates.json and tables.json name their array."""

    # (documents to write under the run's directory, the file and the keys down to the field
    # deleted from it, argv with {} for that directory, message)
    CASES = {
        "density-matrix": ({"s.json": json.loads(_STATE), "d.json": json.loads(_MEASURE)},
                           ("s.json", "matrix"), _SIMULATE,
                           "{}/s.json: density document needs a 'matrix' field"),
        "measure-elements": ({"s.json": json.loads(_STATE), "d.json": json.loads(_MEASURE)},
                             ("d.json", "elements"), _SIMULATE,
                             "{}/d.json: measure document needs a 'elements' field"),
        "detector-scale": ({"s.json": json.loads(_STATE),
                            "d.json": {**json.loads(_MEASURE), "scale": [1, -1]}},
                           ("d.json", "scale"), _UNCERTAINTY,
                           "{}/d.json: detector document needs a 'scale' field"),
        "instrument-branches": ({"s.json": json.loads(_STATE), "d.json": _DEVICE},
                                ("d.json", "instrument", "branches"), _SIMULATE,
                                "{}/d.json: instrument document needs a 'branches' field"),
        "device-detector": ({"s.json": json.loads(_STATE), "d.json": _DEVICE},
                            ("d.json", "detector"), _SIMULATE,
                            "{}/d.json: device document needs a 'detector' field"),
        "model-H": ({"m.json": _JUMPS}, ("m.json", "H"), _DYNAMICS,
                    "{}/m.json: model document needs a 'H' field"),
        "model-rho0": ({"m.json": _JUMPS}, ("m.json", "rho0"), _DYNAMICS,
                       "{}/m.json: model document needs a 'rho0' field"),
        "lindblad-L": ({"m.json": _JUMPS}, ("m.json", "lindblad", "L"), _DYNAMICS,
                       "{}/m.json: lindblad document needs a 'L' field"),
        "lindblad-gamma": ({"m.json": _JUMPS}, ("m.json", "lindblad", "gamma"), _DYNAMICS,
                           "{}/m.json: lindblad document needs a 'gamma' field"),
        "hamiltonian-matrix": ({"h.json": {"matrix": _EYE2}}, ("h.json", "matrix"),
                               "report lines {}/h.json --out {}/run/lines.json",
                               "{}/h.json: Hamiltonian document needs a 'matrix' field"),
        "selfcal-outputs": ({"b/selfcal.json": json.loads(_selfcal([_EYE4] * 2, [_EYE2] * 2))},
                            ("b/selfcal.json", "outputs"), _SELFCAL,
                            "{}/b/selfcal.json: selfcal document needs a 'outputs' field"),
        "selfcal-init-filters": (
            {"b/selfcal.json": json.loads(_selfcal([_EYE4] * 2, [_EYE2] * 2))},
            ("b/selfcal.json", "init_filters"), _SELFCAL,
            "{}/b/selfcal.json: selfcal document needs a 'init_filters' field"),
        "selfcal-init-sources": (
            {"b/selfcal.json": json.loads(_selfcal([_EYE4] * 2, [_EYE2] * 2))},
            ("b/selfcal.json", "init_sources"), _SELFCAL,
            "{}/b/selfcal.json: selfcal document needs a 'init_sources' field"),
        "rates": ({"b/measure.json": json.loads(_MEASURE), "b/rates.json": {"rates": [0.5, 0.5]}},
                  ("b/rates.json", "rates"), "tomo state {}/b --out {}/run/report.json",
                  "{}/b/rates.json: 'rates' must be a rectangular array of finite numbers with "
                  "1 or 2 axes"),
        "tables": ({"b/measure.json": json.loads(_MEASURE), "b/probes/p.json": json.loads(_STATE),
                    "b/tables.json": {"tables": [[[0, 1, 0], [0, 0, 0]]]}},
                   ("b/tables.json", "tables"), "tomo instrument {}/b --out {}/run/report.json",
                   "{}/b/tables.json: 'tables' must be a rectangular array of finite numbers "
                   "with 3 axes"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_missing_field_exits_2_naming_file_and_field(self, tmp_path, case):
        docs, (name, *keys), argv, message = self.CASES[case]
        docs = json.loads(json.dumps(docs))  # a copy, as the case's documents are shared
        parent = docs[name]
        for key in keys[:-1]:
            parent = parent[key]
        del parent[keys[-1]]
        for path, doc in docs.items():
            (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / path).write_text(json.dumps(doc))
        message = message.replace("{}", str(tmp_path))
        result = run_cli(argv.replace("{}", str(tmp_path)).split())
        assert result.exit_code == 2, result.output
        assert json.loads(result.stderr)["error"]["message"] == message
        error = json.loads((tmp_path / "run" / "manifest.json").read_text())["error"]
        assert error == {"type": "ContractViolation", "message": message}


class TestUnwritableOutput:
    """An output directory that cannot be made exits 2 with one JSON error on stderr and no
    manifest; a manifest that cannot be written after a successful command exits 2 naming it."""

    @pytest.mark.parametrize("command", ["simulate", "tomo", "dynamics"])
    def test_out_under_a_regular_file_exits_2(self, fixture_files, tmp_path, command):
        blocker = tmp_path / "file"
        blocker.write_text("")
        bundle = tmp_path / "bundle"
        bundle.mkdir()
        (bundle / "measure.json").write_text(Path(fixture_files["device"]).read_text())
        (bundle / "rates.json").write_text(json.dumps({"rates": [1 / 6] * 6}))
        (tmp_path / "m.json").write_text(_model())
        argv = {"simulate": f"simulate {fixture_files['source']} {fixture_files['device']} "
                            f"--shots 10 --out {blocker}/run",
                "tomo": f"tomo state {bundle} --out {blocker}/report.json",
                "dynamics": f"dynamics {tmp_path}/m.json --t 1 --dt 0.1 --out {blocker}/t.json"}
        result = run_cli(argv[command].split())
        assert result.exit_code == 2, result.output
        error = json.loads(result.stderr)["error"]
        assert error["type"] in ("FileExistsError", "NotADirectoryError"), error
        assert str(blocker) in error["message"] and "Traceback" not in result.output

    def test_manifest_that_cannot_be_written_exits_2(self, tmp_path):
        (tmp_path / "m.json").write_text(_model())
        (tmp_path / "run" / "manifest.json").mkdir(parents=True)
        result = run_cli(["dynamics", str(tmp_path / "m.json"), "--t", "1", "--dt", "0.1",
                          "--out", str(tmp_path / "run" / "t.json")])
        assert result.exit_code == 2, result.output
        error = json.loads(result.stderr)["error"]
        assert "manifest.json" in error["message"] and "Traceback" not in result.output


class TestTomoProcess:
    @staticmethod
    def _identity_bundle(tmp_path):
        from support import probe_states

        bundle = tmp_path / "process_problem"
        (bundle / "probes").mkdir(parents=True)
        (bundle / "outputs").mkdir()
        for i, probe in enumerate(probe_states(2)):
            doc = qio.density_to_json(probe)
            qio.write_json_atomic(str(bundle / "probes" / f"p{i}.json"), doc)
            qio.write_json_atomic(str(bundle / "outputs" / f"p{i}.json"), doc)
        return bundle

    def test_identity_channel_choi_rank_one(self, tmp_path):
        bundle = self._identity_bundle(tmp_path)
        out = tmp_path / "report.json"
        result = run_cli(["tomo", "process", str(bundle), "--out", str(out)])
        assert result.exit_code == 0
        report = json.loads(out.read_text())
        assert report["choi_rank"] == 1
        est = qio.matrix_from_json(report["estimate"]["superoperator"])
        assert np.max(np.abs(est - np.eye(4))) <= 1e-10

    def test_boolean_probe_entry_exits_2(self, tmp_path):
        bundle = self._identity_bundle(tmp_path)
        (bundle / "probes" / "p0.json").write_text('{"matrix": [[true, [0, 1]], [[0, -1], 0]]}')
        out = tmp_path / "run" / "report.json"
        result = run_cli(["tomo", "process", str(bundle), "--out", str(out)])
        assert result.exit_code == 2, result.output
        error = json.loads((out.parent / "manifest.json").read_text())["error"]
        assert error["type"] == "ContractViolation" and "True" in error["message"]

    def test_golden_report_bytes(self, tmp_path):
        from support import probe_states

        # amplitude damping with decay probability 0.36
        kraus = [np.diag([1.0, 0.8]), np.array([[0.0, 0.6], [0.0, 0.0]])]
        bundle = tmp_path / "process_problem"
        (bundle / "probes").mkdir(parents=True)
        (bundle / "outputs").mkdir()
        for i, probe in enumerate(probe_states(2)):
            qio.write_json_atomic(str(bundle / "probes" / f"p{i}.json"),
                                  qio.density_to_json(probe))
            qio.write_json_atomic(str(bundle / "outputs" / f"p{i}.json"),
                                  qio.density_to_json(qtomo.kraus_apply(kraus, probe)))
        out = tmp_path / "report.json"
        result = run_cli(["tomo", "process", str(bundle), "--out", str(out)])
        assert result.exit_code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_PROCESS_SHA256


class TestTomoDetectorInstrumentSelfcal:
    def test_detector_bundle(self, tmp_path):
        from support import probe_states

        target = qtomo.tetrahedron_measure()
        probes = probe_states(2)
        rates = np.stack([qtomo.response_probabilities(target, p) for p in probes])
        bundle = tmp_path / "detector_problem"
        (bundle / "probes").mkdir(parents=True)
        for i, probe in enumerate(probes):
            qio.write_json_atomic(str(bundle / "probes" / f"p{i}.json"),
                                  qio.density_to_json(probe))
        qio.write_json_atomic(str(bundle / "rates.json"), {"rates": rates.tolist()})
        out = tmp_path / "report.json"
        result = run_cli(["tomo", "detector", str(bundle), "--out", str(out)])
        assert result.exit_code == 0
        report = json.loads(out.read_text())
        est, _ = qio.measure_from_json(report["estimate"])
        for a, b in zip(est.elements, target.elements):
            assert np.max(np.abs(a - b)) <= 1e-8

    def test_instrument_bundle(self, tmp_path):
        from support import probe_states

        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        inst = qtomo.Instrument(((p0,), (p1,)))
        det = qtomo.Detector(qtomo.tetrahedron_measure(), np.arange(1.0, 5.0))
        probes = probe_states(2)
        tables = np.stack([qtomo.joint_probabilities(inst, det.measure, p) for p in probes])
        bundle = tmp_path / "instrument_problem"
        (bundle / "probes").mkdir(parents=True)
        for i, probe in enumerate(probes):
            qio.write_json_atomic(str(bundle / "probes" / f"p{i}.json"),
                                  qio.density_to_json(probe))
        qio.write_json_atomic(str(bundle / "measure.json"),
                              qio.measure_to_json(det.measure, det.scale))
        qio.write_json_atomic(str(bundle / "tables.json"), {"tables": tables.tolist()})
        out = tmp_path / "report.json"
        result = run_cli(["tomo", "instrument", str(bundle), "--out", str(out)])
        assert result.exit_code == 0
        report = json.loads(out.read_text())
        assert len(report["estimate"]["branches"]) == 3  # null + two branches
        # the second detector's scale is not read: without it, the same report bytes
        qio.write_json_atomic(str(bundle / "measure.json"), qio.measure_to_json(det.measure))
        unscaled = tmp_path / "unscaled" / "report.json"
        result = run_cli(["tomo", "instrument", str(bundle), "--out", str(unscaled)])
        assert result.exit_code == 0, result.output
        assert unscaled.read_bytes() == out.read_bytes()

    def test_instrument_bundle_from_coincidence_events(self, tmp_path):
        from support import probe_states

        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        inst = qtomo.Instrument(((p0,), (p1,)))
        det = qtomo.Detector(qtomo.tetrahedron_measure(), np.arange(1.0, 5.0))
        probes = probe_states(2)
        bundle = tmp_path / "instrument_events"
        (bundle / "probes").mkdir(parents=True)
        (bundle / "events").mkdir()
        qio.write_json_atomic(str(bundle / "measure.json"),
                              qio.measure_to_json(det.measure, det.scale))
        for i, probe in enumerate(probes):
            qio.write_json_atomic(str(bundle / "probes" / f"p{i}.json"),
                                  qio.density_to_json(probe))
            cfg = qtomo.ExperimentConfig(600 + i, 200_000, probe, det.measure, inst)
            log, _ = qtomo.sample_events(cfg)
            (bundle / "events" / f"p{i}.csv").write_text(qtomo.event_log_to_csv(log))
        out = tmp_path / "report.json"
        result = run_cli(["tomo", "instrument", str(bundle), "--out", str(out)])
        assert result.exit_code == 0
        report = json.loads(out.read_text())
        maps = [qio.matrix_from_json(b) for b in report["estimate"]["branches"]]
        for j, proj in ((1, np.diag([1.0, 0.0])), (2, np.diag([0.0, 1.0]))):
            for b in qtomo.hermitian_basis(2):
                err = np.max(np.abs(qtomo.apply_superop(maps[j], b) - proj @ b @ proj))
                assert err <= 0.05

    def test_instrument_logs_weight_the_output_solves(self, tmp_path):
        """tomo instrument fits the logs' element rates weighted by their shot counts; the
        same rates in a tables.json, which keeps the null detection slot, give the unweighted
        fit.  The Pauli-6 second detector overdetermines each output, so weights matter."""
        from support import probe_states

        inst = qtomo.Instrument(((np.sqrt(0.9) * np.diag([1.0, 0.0]),), (np.diag([0.0, 1.0]),)))
        measure = qtomo.pauli_six_measure()
        probes = probe_states(2)
        bundle = tmp_path / "bundle"
        (bundle / "probes").mkdir(parents=True)
        (bundle / "events").mkdir()
        qio.write_json_atomic(str(bundle / "measure.json"), qio.measure_to_json(measure))
        rates = []
        for i, probe in enumerate(probes):
            qio.write_json_atomic(str(bundle / "probes" / f"p{i}.json"),
                                  qio.density_to_json(probe))
            log, counts = qtomo.sample_events(qtomo.ExperimentConfig(700 + i, 5000, probe,
                                                                     measure, inst))
            (bundle / "events" / f"p{i}.csv").write_text(qtomo.event_log_to_csv(log))
            rates.append(qtomo.rates_from_counts(counts, len(log)))
        tables = np.stack(rates)
        fits = {}
        for name, shots in (("logs", 5000), ("tables", None)):
            out = tmp_path / name / "report.json"
            assert run_cli(["tomo", "instrument", str(bundle), "--out", str(out)]).exit_code == 0
            report = json.loads(out.read_text())
            maps, expected = qtomo.instrument_tomography(tables[..., 1:], probes, measure, shots)
            fits[name] = [qio.matrix_from_json(b) for b in report["estimate"]["branches"]]
            assert np.array_equal(fits[name], maps)
            assert report["residual"] == expected.residual
            assert report["projection_distance"] == expected.projection_distance
            qio.write_json_atomic(str(bundle / "tables.json"), {"tables": tables})
        assert np.max(np.abs(np.subtract(fits["logs"], fits["tables"]))) > 1e-6

    @staticmethod
    def _selfcal_report(tmp_path):
        rng = np.random.default_rng(140)
        from support import random_density, random_kraus

        filters = [qtomo.superop_from_kraus(random_kraus(2, 2, rng)) for _ in range(2)]
        sources = [random_density(2, rng) for _ in range(3)]
        outputs = [[qtomo.apply_superop(f, s) for s in sources] for f in filters]
        bundle = tmp_path / "selfcal_problem"
        bundle.mkdir()
        qio.write_json_atomic(str(bundle / "selfcal.json"), {
            "outputs": [[qio.matrix_to_json(m) for m in row] for row in outputs],
            "init_filters": [qio.matrix_to_json(f + 1e-3) for f in filters],
            "init_sources": [qio.matrix_to_json(s) for s in sources],
        })
        out = tmp_path / "report.json"
        result = run_cli(["tomo", "selfcal", str(bundle), "--out", str(out)])
        assert result.exit_code == 0
        return json.loads(out.read_text())

    def test_selfcal_bundle(self, tmp_path):
        report = self._selfcal_report(tmp_path)
        assert report["residual"] <= 1e-8
        assert report["converged"] and report["flags"] == []
        history = report["residual_history"]
        assert len(history) == report["iterations"] + 1 and history[-1] == report["residual"]

    def test_selfcal_stopped_at_max_iter_is_flagged(self, tmp_path, monkeypatch):
        from qtomo import tomography

        capped = functools.partial(tomography.self_calibrating_tomography, max_iter=1)
        monkeypatch.setattr(tomography, "self_calibrating_tomography", capped)
        report = self._selfcal_report(tmp_path)
        assert report["iterations"] == 1 and not report["converged"]
        assert report["flags"] == ["not_converged"]
        history = report["residual_history"]
        assert len(history) == 2 and history[-1] == report["residual"]


class TestDynamicsCommand:
    def test_free_model_constant(self, tmp_path):
        model = tmp_path / "model.json"
        qio.write_json_atomic(str(model), {
            "H": qio.matrix_to_json(np.zeros((2, 2))),
            "rho0": qio.matrix_to_json(np.diag([0.25, 0.75])),
        })
        out = tmp_path / "traj.json"
        result = run_cli([
            "dynamics", str(model), "--t", "1.0", "--dt", "0.25", "--out", str(out),
        ])
        assert result.exit_code == 0
        traj = json.loads(out.read_text())
        assert len(traj) == 5
        for snap in traj:
            assert np.allclose(qio.matrix_from_json(snap["matrix"]), np.diag([0.25, 0.75]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_exact_flow_of_a_huge_finite_hamiltonian(self, tmp_path):
        # the propagator was all nan, and the run failed on serialising it
        model = tmp_path / "model.json"
        qio.write_json_atomic(str(model), {"H": qio.matrix_to_json(np.diag([1e308, 0.0])),
                                           "rho0": qio.matrix_to_json(np.full((2, 2), 0.5))})
        out = tmp_path / "traj.json"
        result = run_cli(["dynamics", str(model), "--t", "1.0", "--dt", "0.5", "--method", "exact",
                          "--out", str(out)])
        assert result.exit_code == 0, result.output
        for snap in json.loads(out.read_text()):
            state = qio.matrix_from_json(snap["matrix"])
            assert np.isfinite(state).all() and np.trace(state).real == pytest.approx(1.0)

    def test_dephasing_off_diagonal_decay(self, tmp_path):
        gamma = 0.25
        model = tmp_path / "model.json"
        qio.write_json_atomic(str(model), {
            "H": qio.matrix_to_json(np.zeros((2, 2))),
            "rho0": qio.matrix_to_json(0.5 * np.ones((2, 2))),
            "lindblad": {"L": [qio.matrix_to_json(qtomo.PAULI[3])], "gamma": [gamma]},
        })
        out = tmp_path / "traj.json"
        result = run_cli([
            "dynamics", str(model), "--t", "2.0", "--dt", "0.125",
            "--method", "lindblad", "--out", str(out),
        ])
        assert result.exit_code == 0
        traj = json.loads(out.read_text())
        for snap in traj:
            state = qio.matrix_from_json(snap["matrix"])
            expected = 0.5 * np.exp(-2.0 * gamma * snap["t"])
            assert abs(state[0, 1].real - expected) <= 1e-6

    def test_potential_with_jumps_decays(self, tmp_path):
        # V = v I decays the trace as exp(-2 v t); the sigma_z jump preserves it
        v, t = 0.5, 1.0
        model = tmp_path / "model.json"
        qio.write_json_atomic(str(model), {
            "H": qio.matrix_to_json(qtomo.PAULI[1]),
            "V": qio.matrix_to_json(v * np.eye(2)),
            "rho0": qio.matrix_to_json(np.diag([1.0, 0.0])),
            "lindblad": {"L": [qio.matrix_to_json(qtomo.PAULI[3])], "gamma": [0.3]},
        })
        for method, dt, tol in (("lindblad", 0.1, 1e-9), ("slice", 0.01, 0.01)):
            out = tmp_path / method / "traj.json"
            result = run_cli([
                "dynamics", str(model), "--t", str(t), "--dt", str(dt),
                "--method", method, "--out", str(out),
            ])
            assert result.exit_code == 0
            final = qio.matrix_from_json(json.loads(out.read_text())[-1]["matrix"])
            assert abs(np.trace(final).real - np.exp(-2.0 * v * t)) <= tol, method

    def test_lossless_only_paths_reject_dissipative_models(self, tmp_path):
        jump = {"L": [qio.matrix_to_json(qtomo.PAULI[3])], "gamma": [0.3]}
        potential = qio.matrix_to_json(0.1 * np.eye(2))
        for extra, args in (({"V": potential}, ["--method", "exact"]),
                            ({"lindblad": jump}, ["--method", "exact"]),
                            ({"lindblad": jump}, ["--method", "slice", "--richardson"])):
            model = tmp_path / "model.json"
            qio.write_json_atomic(str(model), {
                "H": qio.matrix_to_json(qtomo.PAULI[1]),
                "rho0": qio.matrix_to_json(np.diag([1.0, 0.0])), **extra,
            })
            out = tmp_path / "traj.json"
            result = run_cli([
                "dynamics", str(model), "--t", "1.0", "--dt", "0.1", *args, "--out", str(out),
            ])
            assert result.exit_code == 2, args
            assert not out.exists()
            assert not (tmp_path / "traj.richardson.json").exists()

    def test_methods_share_one_time_grid(self, tmp_path):
        # t = 0.7 is not a multiple of dt = 0.3: every method steps dt and stops at 2 dt
        model = tmp_path / "model.json"
        qio.write_json_atomic(str(model), {
            "H": qio.matrix_to_json(qtomo.PAULI[1]),
            "rho0": qio.matrix_to_json(np.diag([1.0, 0.0])),
        })
        times = {}
        for method in ("slice", "exact", "lindblad"):
            out = tmp_path / method / "traj.json"
            result = run_cli([
                "dynamics", str(model), "--t", "0.7", "--dt", "0.3",
                "--method", method, "--out", str(out),
            ])
            assert result.exit_code == 0, method
            times[method] = [snap["t"] for snap in json.loads(out.read_text())]
        assert times["slice"] == times["exact"] == times["lindblad"]
        assert times["lindblad"] == pytest.approx([0.0, 0.3, 0.6], abs=1e-15)

    @pytest.mark.parametrize("method", ["lindblad", "slice"])
    def test_golden_trajectory_bytes(self, tmp_path, method):
        model = tmp_path / "model.json"
        qio.write_json_atomic(str(model), {
            "H": qio.matrix_to_json(0.5 * qtomo.PAULI[1] + 0.25 * qtomo.PAULI[3]),
            "rho0": qio.matrix_to_json(np.diag([1.0, 0.0])),
            "lindblad": {"L": [qio.matrix_to_json(np.array([[0.0, 1.0], [0.0, 0.0]]))],
                         "gamma": [0.3]},
        })
        out = tmp_path / "traj.json"
        result = run_cli([
            "dynamics", str(model), "--t", "1.0", "--dt", "0.25",
            "--method", method, "--out", str(out),
        ])
        assert result.exit_code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_TRAJECTORY_SHA256[method]

    def test_exact_trajectory_is_the_per_time_stack(self, tmp_path):
        # one eigendecomposition of H for every time, and the bytes of one von_neumann_evolve
        # call per time
        from qtomo.dynamics import Trajectory

        rng = np.random.default_rng(17)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        model = tmp_path / "model.json"
        qio.write_json_atomic(str(model), {
            "H": qio.matrix_to_json(0.5 * (g + g.conj().T)),
            "rho0": qio.matrix_to_json(rho / np.trace(rho)), "hbar": 0.9,
        })
        out = tmp_path / "traj.json"
        result = run_cli(["dynamics", str(model), "--t", "1.3", "--dt", "0.05",
                          "--method", "exact", "--out", str(out)])
        assert result.exit_code == 0, result.output
        medium, rho0 = qio.model_from_json(qio.read_json(str(model)))
        times = 0.05 * np.arange(27)
        per_time = np.stack([qtomo.von_neumann_evolve(medium.H, rho0, t, medium.hbar)
                             for t in times])
        expected = qio.canonical_json(qio.trajectory_to_json(Trajectory(times, per_time)))
        assert out.read_text() == expected + "\n"

    def test_negative_dt_exits_2(self, tmp_path):
        model = tmp_path / "model.json"
        qio.write_json_atomic(str(model), {
            "H": qio.matrix_to_json(np.zeros((2, 2))),
            "rho0": qio.matrix_to_json(np.diag([1.0, 0.0])),
        })
        result = run_cli([
            "dynamics", str(model), "--t", "1.0", "--dt", "-0.1",
            "--out", str(tmp_path / "x.json"),
        ])
        assert result.exit_code == 2

    @pytest.mark.parametrize("method", ["exact", "slice", "lindblad"])
    def test_trajectory_beyond_the_limit_exits_2(self, tmp_path, method):
        from qtomo.cli import MAX_TRAJECTORY_ENTRIES

        model = tmp_path / "model.json"
        qio.write_json_atomic(str(model), {
            "H": qio.matrix_to_json(qtomo.PAULI[1]),
            "rho0": qio.matrix_to_json(np.diag([1.0, 0.0])),
        })
        # 10^12 steps, which would run slice for hours and have lindblad and exact ask for
        # terabytes; then one step more than the limit allows.
        n_max = MAX_TRAJECTORY_ENTRIES // 4 - 1
        for t, dt, n in (("1", "1e-12", 10 ** 12), (repr((n_max + 1) * 0.5), "0.5", n_max + 1)):
            out = tmp_path / "run" / "traj.json"
            result = run_cli(["dynamics", str(model), f"--t={t}", f"--dt={dt}",
                              "--method", method, "--out", str(out)])
            assert result.exit_code == 2, result.output
            assert not out.exists()
            error = json.loads((out.parent / "manifest.json").read_text())["error"]
            assert error["type"] == "ContractViolation"
            assert f"n = {n} steps of 2x2 states" in error["message"]

    def test_infinite_step_count_exits_2(self, tmp_path):
        model = tmp_path / "model.json"
        qio.write_json_atomic(str(model), {"H": [[1.0]], "rho0": [[1.0]]})
        out = tmp_path / "run" / "traj.json"
        result = run_cli(["dynamics", str(model), "--t", "1e300", "--dt", "1e-300",
                          "--out", str(out)])
        assert result.exit_code == 2, result.output
        error = json.loads((out.parent / "manifest.json").read_text())["error"]
        assert "not a finite number of steps" in error["message"]

    def test_richardson_counts_only_the_written_trajectory(self, tmp_path, monkeypatch):
        from qtomo import cli, dynamics

        model = tmp_path / "model.json"
        qio.write_json_atomic(str(model), {
            "H": qio.matrix_to_json(qtomo.PAULI[1]),
            "rho0": qio.matrix_to_json(np.diag([1.0, 0.0])),
        })
        runs, sliced_master = [], dynamics.sliced_master
        monkeypatch.setattr(dynamics, "sliced_master",
                            lambda *args: runs.append(args[3]) or sliced_master(*args))
        # n = 24 steps: (n + 1) d^2 = 100 entries; Richardson's two final states are matrix
        # powers, so --richardson is refused and accepted at the limits of the plain command
        for limit, code in ((99, 2), (100, 0)):
            monkeypatch.setattr(cli, "MAX_TRAJECTORY_ENTRIES", limit)
            for extra in ([], ["--richardson"]):
                out = tmp_path / f"{limit}{''.join(extra)}" / "traj.json"
                result = run_cli(["dynamics", str(model), "--t", "2.4", "--dt", "0.1",
                                  "--method", "slice", *extra, "--out", str(out)])
                assert result.exit_code == code, (limit, extra, result.output)
                assert out.exists() == (code == 0)
                assert out.with_suffix(".richardson.json").exists() == (code == 0 and bool(extra))
                if code:
                    error = json.loads((out.parent / "manifest.json").read_text())["error"]
                    assert "(n + 1) d^2 = 100 complex entries, more than 99" in error["message"]
        # each accepted command slices its one trajectory of n steps, and nothing more
        assert runs == [24, 24]

    def test_richardson_ratio_near_two(self, tmp_path):
        model = tmp_path / "model.json"
        qio.write_json_atomic(str(model), {
            "H": qio.matrix_to_json(qtomo.PAULI[1]),
            "rho0": qio.matrix_to_json(np.diag([1.0, 0.0])),
        })
        out = tmp_path / "traj.json"
        result = run_cli([
            "dynamics", str(model), "--t", "1.0", "--dt", "0.001",
            "--method", "slice", "--richardson", "--out", str(out),
        ])
        assert result.exit_code == 0
        ratio = json.loads((tmp_path / "traj.richardson.json").read_text())["ratio"]
        assert 1.8 <= ratio <= 2.2


class TestReportCommand:
    def test_lines_table(self, tmp_path):
        ham = tmp_path / "h.json"
        qio.write_json_atomic(str(ham), {"H": qio.matrix_to_json(np.diag([0.0, 1.0, 3.0]))})
        out = tmp_path / "lines.json"
        csv_path = tmp_path / "lines.csv"
        result = run_cli([
            "report", "lines", str(ham), "--out", str(out), "--plot-csv", str(csv_path),
        ])
        assert result.exit_code == 0
        report = json.loads(out.read_text())
        assert np.allclose(report["omega"], [1.0, 2.0, 3.0])
        assert np.allclose(report["nu"], np.array([1.0, 2.0, 3.0]) / (2 * np.pi))
        assert csv_path.read_text().splitlines()[0] == "x,y"

    @pytest.mark.parametrize("hbar", [-1, 0])
    def test_lines_refuse_a_nonpositive_hbar(self, tmp_path, hbar):
        ham = tmp_path / "h.json"
        qio.write_json_atomic(str(ham), {"H": qio.matrix_to_json(np.diag([0.0, 1.0])),
                                         "hbar": hbar})
        out = tmp_path / "run" / "lines.json"
        result = run_cli(["report", "lines", str(ham), "--out", str(out)])
        assert result.exit_code == 2, result.output
        error = json.loads((out.parent / "manifest.json").read_text())["error"]
        assert error == {"type": "ContractViolation", "message": "hbar must be positive"}
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_lines_of_a_huge_finite_hamiltonian(self, tmp_path):
        # the halved sum of H and its adjoint overflowed, and the report had no line
        ham = tmp_path / "h.json"
        qio.write_json_atomic(str(ham), {"H": qio.matrix_to_json(np.diag([1e308, 0.0]))})
        out = tmp_path / "lines.json"
        result = run_cli(["report", "lines", str(ham), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert json.loads(out.read_text())["omega"] == [1e308]

    def test_plot_csv_is_written_atomically(self, tmp_path):
        # like every other output: its directory is made, and a failed write leaves no file
        ham = tmp_path / "h.json"
        qio.write_json_atomic(str(ham), {"H": qio.matrix_to_json(np.diag([0.0, 1.0, 3.0]))})
        csv_path = tmp_path / "nodir" / "p.csv"
        result = run_cli(["report", "lines", str(ham), "--out", str(tmp_path / "r" / "lines.json"),
                          "--plot-csv", str(csv_path)])
        assert result.exit_code == 0, result.output
        nu = np.array([1.0, 2.0, 3.0]) / (2 * np.pi)
        assert csv_path.read_bytes() == ("x,y\n" + "".join(
            f"{k + 1:.17g},{v:.17g}\n" for k, v in enumerate(nu))).encode("ascii")
        taken = tmp_path / "taken"
        taken.mkdir()
        result = run_cli(["report", "lines", str(ham), "--out", str(tmp_path / "r2" / "lines.json"),
                          "--plot-csv", str(taken)])
        assert result.exit_code == 2, result.output
        assert taken.is_dir() and list(taken.iterdir()) == []
        # the plot is written before the report, so the failed run leaves only its manifest
        assert [p.name for p in (tmp_path / "r2").iterdir()] == ["manifest.json"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["h.json", "nodir", "r", "r2",
                                                              "taken"]

    def test_uncertainty_projective_zero_excess(self, tmp_path):
        src = tmp_path / "state.json"
        qio.write_json_atomic(str(src), qio.density_to_json(np.diag([0.3, 0.7])))
        det = tmp_path / "det.json"
        qio.write_json_atomic(str(det), qio.measure_to_json(
            qtomo.projective_measure(np.eye(2)), [1.0, -1.0]))
        out = tmp_path / "unc.json"
        result = run_cli([
            "report", "uncertainty", str(src), str(det), "--out", str(out),
        ])
        assert result.exit_code == 0
        report = json.loads(out.read_text())
        assert abs(report["excess"]) <= 1e-10

    def test_uncertainty_takes_a_flat_scale(self, tmp_path):
        # a flat numeric scale holds one scalar value per element, as Detector(measure, [1, -1])
        src = tmp_path / "source.json"
        src.write_text('{"matrix": [[0.5, 0.25], [0.25, 0.5]]}')
        reports = []
        for name, scale in (("column", "[[1], [-1]]"), ("flat", "[1, -1]")):
            det = tmp_path / f"{name}.json"
            det.write_text('{"elements": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], "scale": %s}'
                           % scale)
            out = tmp_path / name / "unc.json"
            result = run_cli(["report", "uncertainty", str(src), str(det), "--out", str(out)])
            assert result.exit_code == 0, result.output
            reports.append(out.read_bytes())
        assert reports[0] == reports[1] == b'{"e_var":1,"excess":0,"sigma2":1}\n'

    def test_uncertainty_builds_the_series_only_for_a_plot(self, tmp_path, monkeypatch):
        import qtomo.measures
        import qtomo.uncertainty  # binds its own response_probabilities before the patch

        calls = []
        original = qtomo.measures.response_probabilities
        monkeypatch.setattr(qtomo.measures, "response_probabilities",
                            lambda *args: calls.append(args) or original(*args))
        (tmp_path / "s.json").write_text('{"matrix": [[0.5, 0.25], [0.25, 0.5]]}')
        (tmp_path / "d.json").write_text(
            '{"elements": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], "scale": [1, -1]}')
        argv = ["report", "uncertainty", str(tmp_path / "s.json"), str(tmp_path / "d.json")]
        assert run_cli(argv + ["--out", str(tmp_path / "a" / "unc.json")]).exit_code == 0
        assert calls == []
        assert run_cli(argv + ["--out", str(tmp_path / "b" / "unc.json"),
                               "--plot-csv", str(tmp_path / "b" / "unc.csv")]).exit_code == 0
        assert len(calls) == 1
        assert (tmp_path / "b" / "unc.csv").read_bytes() == b"x,y\n1,0.5\n2,0.5\n"
        assert (tmp_path / "a" / "unc.json").read_bytes() == (
            tmp_path / "b" / "unc.json").read_bytes()

    def test_classify_unitary_lossless(self, tmp_path):
        chan = tmp_path / "chan.json"
        qio.write_json_atomic(str(chan), qio.channel_to_json([qtomo.PAULI[1]]))
        out = tmp_path / "cls.json"
        result = run_cli(["report", "classify", str(chan), "--out", str(out)])
        assert result.exit_code == 0
        report = json.loads(out.read_text())
        assert report["lossless"] and report["passive"] and not report["mixing"]

    def test_classify_reads_tol_psd_for_a_choi_document(self, tmp_path):
        # the least Choi eigenvalue -5e-9 lies outside the default --tol-psd 1e-9
        chan = tmp_path / "choi.json"
        chan.write_text('{"choi": [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, -5e-9]]}')
        out = tmp_path / "strict" / "cls.json"
        result = run_cli(["report", "classify", str(chan), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert json.loads(result.stderr)["error"]["message"] == (
            f"{chan}: not completely positive: Choi matrix: PSD defect 5.000e-09 exceeds "
            "--tol-psd 1e-09")
        assert not out.exists()
        out = tmp_path / "loose" / "cls.json"
        result = run_cli(["--tol-psd", "1e-8", "report", "classify", str(chan), "--out",
                          str(out)])
        assert result.exit_code == 0, result.output
        assert json.loads(out.read_text())["choi_rank"] == 1

    def test_classify_reads_tol_psd_for_passive_and_lossless(self, tmp_path):
        # T = (1 + 2e-9) I: I - T*T has the eigenvalue -4e-9 twice
        chan = tmp_path / "amp.json"
        qio.write_json_atomic(str(chan), qio.channel_to_json([(1 + 2e-9) * np.eye(2)]))
        for options, verdict in (([], False), (["--tol-psd", "1e-8"], True)):
            out = tmp_path / f"run-{verdict}" / "cls.json"
            result = run_cli([*options, "report", "classify", str(chan), "--out", str(out)])
            assert result.exit_code == 0, result.output
            report = json.loads(out.read_text())
            assert (report["passive"], report["lossless"], report["active"]) == (
                verdict, verdict, not verdict)

    def test_classify_refuses_a_plot_csv(self, tmp_path):
        # classify has no series: the plot was silently not written
        chan = tmp_path / "chan.json"
        qio.write_json_atomic(str(chan), qio.channel_to_json([qtomo.PAULI[1]]))
        out = tmp_path / "run" / "cls.json"
        csv_path = tmp_path / "run" / "cls.csv"
        result = run_cli(["report", "classify", str(chan), "--out", str(out),
                          "--plot-csv", str(csv_path)])
        assert result.exit_code == 2, result.output
        error = json.loads((out.parent / "manifest.json").read_text())["error"]
        assert error == {"type": "ContractViolation", "message": "--plot-csv takes the series of "
                         "report uncertainty or lines; report classify has none"}
        assert [p.name for p in out.parent.iterdir()] == ["manifest.json"]


class TestReportBytes:
    """The three reports on fixed inputs whose dyadic entries make every sum exact, so their
    bytes do not depend on the BLAS or on the order of a sum."""

    def test_golden_report_bytes(self, tmp_path):
        source = tmp_path / "source.json"
        qio.write_json_atomic(str(source), qio.density_to_json(
            np.array([[0.5, 0.25 - 0.25j], [0.25 + 0.25j, 0.5]])))
        p1 = np.diag([0.5, 0.0])
        p2 = np.array([[0.25, -0.25j], [0.25j, 0.25]])
        detector = tmp_path / "detector.json"
        qio.write_json_atomic(str(detector), qio.measure_to_json(
            qtomo.QuantumMeasure([p1, p2, np.eye(2) - p1 - p2]), [1.0, -1.0, 2.0]))
        # levels 1 and 3 twice, and 1 + 2^-40 far below the merge cut of 3e-9: the differences
        # 1 and 1 + 2^-40, and 2 - 2^-40 and 2, each merge into one line
        ham = tmp_path / "ham.json"
        qio.write_json_atomic(str(ham), {"H": qio.matrix_to_json(
            np.diag([3.0, 1.0, 0.0, 1.0 + 2.0 ** -40, 1.0, 3.0])), "hbar": 0.5})
        chan = tmp_path / "chan.json"
        qio.write_json_atomic(str(chan), qio.channel_to_json(
            [np.diag([0.5, 0.5j]), np.array([[0.0, 0.25], [0.5, 0.0]])]))
        out = tmp_path / "out"
        for args in (["uncertainty", source, detector, "--out", out / "unc.json",
                      "--plot-csv", out / "unc.csv"],
                     ["lines", ham, "--out", out / "lines.json", "--plot-csv", out / "lines.csv"],
                     ["classify", chan, "--out", out / "classify.json"]):
            result = run_cli(["report", *map(str, args)])
            assert result.exit_code == 0, result.output
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in GOLDEN_REPORT_SHA256}
        assert digests == GOLDEN_REPORT_SHA256


# The engine each command runs, as a monkeypatch target.
_ENGINES = {"simulate": "qtomo.simulate.write_events", "tomo": "qtomo.tomography.state_tomography",
            "dynamics": "qtomo.dynamics.von_neumann_evolve",
            "report": "qtomo.dynamics.rydberg_ritz_lines"}


def _command_runs(fixture_files, tmp_path):
    """{command: (argv, output path)}: one small successful run of each command."""
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    (bundle / "measure.json").write_text(Path(fixture_files["device"]).read_text())
    (bundle / "rates.json").write_text(json.dumps({"rates": [1 / 6] * 6}))
    (tmp_path / "m.json").write_text(_model())
    run = tmp_path / "run"
    return {
        "simulate": (["simulate", fixture_files["source"], fixture_files["device"], "--shots",
                      "10", "--out", str(run)], run / "events.csv"),
        "tomo": (["tomo", "state", str(bundle), "--out", str(run / "report.json")],
                 run / "report.json"),
        "dynamics": (["dynamics", str(tmp_path / "m.json"), "--t", "1", "--dt", "0.1", "--out",
                      str(run / "t.json")], run / "t.json"),
        "report": (["report", "lines", str(tmp_path / "m.json"), "--out",
                    str(run / "lines.json")], run / "lines.json"),
    }


class TestManifestsAndDeterminism:
    def test_manifest_written_on_success_and_failure(self, fixture_files, tmp_path):
        out = tmp_path / "ok"
        run_cli([
            "simulate", fixture_files["source"], fixture_files["device"],
            "--shots", "10", "--seed", "1", "--out", str(out),
        ])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"] is None
        assert manifest["tool_version"] == qtomo.__version__
        assert manifest["wall_time_s"] >= 0.0
        bad_out = tmp_path / "fail"
        run_cli([
            "simulate", str(tmp_path / "missing.json"), fixture_files["device"],
            "--shots", "10", "--seed", "1", "--out", str(bad_out),
        ])
        manifest = json.loads((bad_out / "manifest.json").read_text())
        assert manifest["error"] is not None

    def test_manifest_records_the_environment(self, fixture_files, tmp_path, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = tmp_path / "run"
        run_cli(["simulate", fixture_files["source"], fixture_files["device"],
                 "--shots", "10", "--out", str(out)])
        environment = json.loads((out / "manifest.json").read_text())["environment"]
        threads = {var: os.environ.get(var) for var in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}
        assert environment == {"python": ".".join(map(str, sys.version_info[:3])),
                               "numpy": np.__version__, "thread_vars": threads}
        assert threads["OMP_NUM_THREADS"] == "3" and threads["MKL_NUM_THREADS"] is None

    @pytest.mark.parametrize("error, code", [(RuntimeError, 4), (ContractViolation, 2)])
    @pytest.mark.parametrize("command", _ENGINES)
    def test_every_command_maps_its_error_to_one_exit_code(self, fixture_files, tmp_path,
                                                           monkeypatch, command, error, code):
        def broken(*args, **kwargs):
            raise error("engine failure")

        monkeypatch.setattr(_ENGINES[command], broken)
        argv, out = _command_runs(fixture_files, tmp_path)[command]
        result = run_cli(argv)
        assert result.exit_code == code, result.output
        named = {"type": error.__name__, "message": "engine failure"}
        assert json.loads(result.stderr) == {"error": named}
        manifest = json.loads((out.parent / "manifest.json").read_text())["error"]
        if code == 4:  # an unexpected error alone carries its traceback
            assert "in broken" in manifest.pop("traceback")
        assert manifest == named
        assert not out.exists()

    @pytest.mark.parametrize("command, tolerances", [
        ("simulate", {"tol_herm": 1e-7, "tol_psd": 1e-6}),
        ("tomo state", {"tol_herm": 1e-7}), ("tomo detector", {"tol_herm": 1e-7}),
        ("tomo process", {"tol_herm": 1e-7}), ("tomo instrument", {"tol_herm": 1e-7}),
        ("tomo selfcal", {"rtol": 1e-8}), ("dynamics", {"tol_herm": 1e-7, "tol_psd": 1e-6}),
        ("report", {"tol_herm": 1e-7, "tol_psd": 1e-6})])
    def test_manifest_records_the_tolerances_its_command_reads(self, fixture_files, tmp_path,
                                                               command, tolerances):
        # the bundle holds only a state problem, so the other tomo modes exit 2; their
        # manifests record the same options as on success
        name, _, mode = command.partition(" ")
        argv, out = _command_runs(fixture_files, tmp_path)[name]
        if mode:
            argv = [*argv[:1], mode, *argv[2:]]
        result = run_cli(["--tol-psd", "1e-6", "--tol-herm", "1e-7", "--rtol", "1e-8", *argv])
        assert result.exit_code == (0 if mode in ("", "state") else 2), result.output
        manifest = json.loads((out.parent / "manifest.json").read_text())
        assert manifest["tolerances"] == tolerances

    def test_key_error_of_a_bug_exits_4_with_traceback(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("estimate")

        monkeypatch.setattr("qtomo.tomography.state_tomography", broken)
        bundle = tmp_path / "bundle"
        bundle.mkdir()
        (bundle / "measure.json").write_text(_MEASURE)
        (bundle / "rates.json").write_text('{"rates": [0.5, 0.5]}')
        out = tmp_path / "run" / "report.json"
        result = run_cli(["tomo", "state", str(bundle), "--out", str(out)])
        assert result.exit_code == 4, result.output
        error = json.loads((out.parent / "manifest.json").read_text())["error"]
        assert error["type"] == "KeyError" and "in broken" in error["traceback"]

    def test_cli_import_does_not_load_scipy(self):
        # scipy is a test-only dependency; importing it would add to every command's start-up
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src"),
             env.get("PYTHONPATH", "")])
        # Submodules load lazily, so import every one of them before looking.
        code = ("import importlib, pkgutil, sys, qtomo\n"
                "names = [m.name for m in pkgutil.iter_modules(qtomo.__path__)]\n"
                "assert 'cli' in names and 'tomography' in names\n"
                "for name in names:\n"
                "    if name != '__main__':\n"
                "        importlib.import_module('qtomo.' + name)\n"
                "assert 'scipy' not in sys.modules\n")
        subprocess.run([sys.executable, "-c", code], check=True, env=env, capture_output=True)

    def test_full_pipeline_byte_identical_across_runs(self, fixture_files, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src"),
             env.get("PYTHONPATH", "")])

        def pipeline(tag):
            run_dir = tmp_path / tag
            subprocess.run([
                sys.executable, "-m", "qtomo", "simulate",
                fixture_files["source"], fixture_files["device"],
                "--shots", "50000", "--seed", "99", "--out", str(run_dir),
            ], check=True, env=env, capture_output=True)
            bundle = tmp_path / f"{tag}_bundle"
            (bundle / "events").mkdir(parents=True)
            qio.write_json_atomic(str(bundle / "measure.json"),
                                  qio.measure_to_json(qtomo.pauli_six_measure()))
            (bundle / "events" / "run.csv").write_text(
                (run_dir / "events.csv").read_text())
            report = run_dir / "report.json"
            subprocess.run([
                sys.executable, "-m", "qtomo", "tomo", "state", str(bundle),
                "--out", str(report),
            ], check=True, env=env, capture_output=True)
            lines = run_dir / "lines.json"
            subprocess.run([
                sys.executable, "-m", "qtomo", "report", "lines",
                fixture_files["source"].replace("source.json", "ham.json"),
                "--out", str(lines),
            ], check=True, env=env, capture_output=True)
            return run_dir

        qio.write_json_atomic(str(fixture_files["dir"] / "ham.json"),
                              {"H": qio.matrix_to_json(np.diag([0.0, 1.0]))})
        first = pipeline("run_a")
        second = pipeline("run_b")
        for name in ("events.csv", "counts.json", "report.json", "lines.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()


class TestOneRankRuleAcrossModes:
    """The squashed tetrahedron of support.squashed_tetrahedron, with the instrument of the
    CI smoke bundle: the two modes that invert a detector agree on its rank."""

    def _bundle(self, tmp_path, eps):
        from support import probe_states, squashed_tetrahedron

        det = qtomo.Detector(squashed_tetrahedron(eps), np.arange(1.0, 5.0))
        inst = qtomo.Instrument(((np.diag([1.0, 0.0]),), (np.diag([0.0, 1.0]),)))
        probes = probe_states(2)
        bundle = tmp_path / f"eps{eps}"
        for i, probe in enumerate(probes):
            qio.write_json_atomic(str(bundle / "probes" / f"p{i}.json"), qio.density_to_json(probe))
        qio.write_json_atomic(str(bundle / "measure.json"), qio.measure_to_json(det.measure, det.scale))
        tables = np.stack([qtomo.joint_probabilities(inst, det.measure, p) for p in probes])
        qio.write_json_atomic(str(bundle / "tables.json"), {"tables": tables})
        qio.write_json_atomic(str(bundle / "rates.json"), {"rates": tables[2, 1:, 1:].sum(axis=0)})
        return bundle, tables

    def test_nearly_flat_detector_is_flagged_by_both_modes(self, tmp_path):
        bundle, _ = self._bundle(tmp_path, 1e-7)
        for mode in ("state", "instrument"):
            out = tmp_path / mode / "report.json"
            result = run_cli(["tomo", mode, str(bundle), "--out", str(out)])
            assert result.exit_code == 0, (mode, result.output)
            report = json.loads(out.read_text())
            assert report["rank"] == 4 and report["cond"] > 1e7
            assert "ill_conditioned" in report["flags"], mode

    def test_flat_detector_exits_3_in_both_modes(self, tmp_path):
        bundle, tables = self._bundle(tmp_path, 0.0)
        for mode in ("state", "instrument"):
            result = run_cli(["tomo", mode, str(bundle), "--out", str(tmp_path / mode / "r.json")])
            assert result.exit_code == 3, (mode, result.output)
        tables[:, 2] = 0.0  # a silent branch is an input error only for a detector of full rank
        qio.write_json_atomic(str(bundle / "tables.json"), {"tables": tables})
        result = run_cli(["tomo", "instrument", str(bundle), "--out", str(tmp_path / "r.json")])
        assert result.exit_code == 3, result.output
        assert "rank 3 < 4" in json.loads(result.stderr)["error"]["message"]


class TestOneDesignAcrossModes:
    """Every mode builds, factors and judges a set of operators by one rule (ops._design)."""

    def test_one_probe_set_has_one_cond(self, tmp_path):
        from support import random_density, random_kraus, random_measure

        # nine pure qutrit probes (cond 92.7) and a 12-element measure (cond 10.1), so the
        # instrument's cond, the larger of the two, is the probes' as well
        rng = np.random.default_rng(1)
        probes = [random_density(3, rng, pure=True) for _ in range(9)]
        measure = random_measure(3, 12, rng)
        inst = qtomo.Instrument(tuple((k,) for k in random_kraus(3, 2, rng, scale=0.3 / np.sqrt(3))))
        bundle = tmp_path / "bundle"
        for i, probe in enumerate(probes):
            qio.write_json_atomic(str(bundle / "probes" / f"p{i}.json"), qio.density_to_json(probe))
            output = sum(qtomo.kraus_apply(branch, probe) for branch in inst.branches)
            qio.write_json_atomic(str(bundle / "outputs" / f"p{i}.json"), qio.density_to_json(output))
        qio.write_json_atomic(str(bundle / "measure.json"), qio.measure_to_json(measure))
        qio.write_json_atomic(str(bundle / "rates.json"), {
            "rates": np.stack([qtomo.response_probabilities(measure, p) for p in probes])})
        qio.write_json_atomic(str(bundle / "tables.json"), {
            "tables": np.stack([qtomo.joint_probabilities(inst, measure, p) for p in probes])})
        conds = {}
        for mode in ("detector", "process", "instrument"):
            out = tmp_path / mode / "report.json"
            result = run_cli(["tomo", mode, str(bundle), "--out", str(out)])
            assert result.exit_code == 0, (mode, result.output)
            conds[mode] = re.search(rb'"cond":([^,}]*)', out.read_bytes()).group(1)
        assert conds["detector"] == conds["process"] == conds["instrument"], conds
        assert 90.0 < float(conds["process"]) < 95.0


class TestNonHermitianOperatorsExit2:
    """The design takes the Hermitian part of each operator, so tomo refuses, naming the file,
    a probe, output or measure element whose Hermitian defect exceeds --tol-herm."""

    @staticmethod
    def _bundle(tmp_path, mode):
        from support import probe_states

        measure = qtomo.tetrahedron_measure()
        probes = probe_states(2)
        bundle = tmp_path / "bundle"
        for i, probe in enumerate(probes):
            qio.write_json_atomic(str(bundle / "probes" / f"p{i}.json"), qio.density_to_json(probe))
            qio.write_json_atomic(str(bundle / "outputs" / f"p{i}.json"), qio.density_to_json(probe))
        qio.write_json_atomic(str(bundle / "measure.json"), qio.measure_to_json(measure))
        rates = np.stack([qtomo.response_probabilities(measure, p) for p in probes])
        qio.write_json_atomic(str(bundle / "rates.json"), {"rates": rates[0] if mode == "state"
                                                           else rates})
        inst = qtomo.Instrument(((np.eye(2),),))
        qio.write_json_atomic(str(bundle / "tables.json"), {
            "tables": np.stack([qtomo.joint_probabilities(inst, measure, p) for p in probes])})
        return bundle

    @pytest.mark.parametrize("mode, path", [
        ("detector", "probes/p0.json"), ("process", "probes/p0.json"),
        ("process", "outputs/p0.json"), ("instrument", "probes/p0.json"),
        ("state", "measure.json"), ("instrument", "measure.json")])
    def test_refused_naming_the_file(self, tmp_path, mode, path):
        bundle = self._bundle(tmp_path, mode)
        out = tmp_path / "run" / "report.json"
        result = run_cli(["tomo", mode, str(bundle), "--out", str(out)])
        assert result.exit_code == 0, result.output
        doc = json.loads((bundle / path).read_text())
        matrix = doc["elements"][0] if path == "measure.json" else doc["matrix"]
        matrix[0][1][0] += 0.3  # off the adjoint of entry (1, 0) by 0.3
        (bundle / path).write_text(json.dumps(doc))
        result = run_cli(["tomo", mode, str(bundle), "--out", str(out)])
        assert result.exit_code == 2, result.output
        message = json.loads((out.parent / "manifest.json").read_text())["error"]["message"]
        assert str(bundle / path) in message and "Hermitian defect 3.000e-01" in message
        # a looser --tol-herm lets the same bundle through
        result = run_cli(["--tol-herm", "0.5", "tomo", mode, str(bundle), "--out", str(out)])
        assert result.exit_code == 0, result.output


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_state_rates_report_a_finite_residual(tmp_path):
    bundle = tmp_path / "bundle"
    qio.write_json_atomic(str(bundle / "measure.json"),
                          qio.measure_to_json(qtomo.pauli_six_measure()))
    rates = 1e200 * np.array([0.3, 0.1, 0.2, 0.15, 0.1, 0.15])  # no state gives these exactly
    qio.write_json_atomic(str(bundle / "rates.json"), {"rates": rates})
    out = tmp_path / "run" / "report.json"
    result = run_cli(["tomo", "state", str(bundle), "--out", str(out)])
    assert result.exit_code == 0, result.output
    report = json.loads(out.read_text())
    assert 1e198 < report["residual_unprojected"] <= report["residual"] < 1e200


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_detector_rates_report_finite_distances(tmp_path):
    from support import probe_states

    bundle = tmp_path / "bundle"
    probes = probe_states(2)
    for i, probe in enumerate(probes):
        qio.write_json_atomic(str(bundle / "probes" / f"p{i}.json"), qio.density_to_json(probe))
    rates = np.stack([qtomo.response_probabilities(qtomo.tetrahedron_measure(), p)
                      for p in probes])
    qio.write_json_atomic(str(bundle / "rates.json"), {"rates": 1e200 * rates})
    out = tmp_path / "run" / "report.json"
    result = run_cli(["tomo", "detector", str(bundle), "--out", str(out)])
    assert result.exit_code == 0, result.output
    report = json.loads(out.read_text())
    # the elements are 1e200 times a measure, so no rescaling of them sums to the identity
    assert 0.0 < report["projection_distance"] < 1e201 and 0.0 <= report["residual"] < 1e201
    assert "deficit_not_converged" in report["flags"]


class TestOverflowExits4WithCause:
    def _expect_exit_4(self, tmp_path, mode, bundle, cause):
        out = tmp_path / "run" / "report.json"
        result = run_cli(["tomo", mode, str(bundle), "--out", str(out)])
        assert result.exit_code == 4, result.output
        assert not out.exists()
        error = json.loads((out.parent / "manifest.json").read_text())["error"]
        assert error["type"] == "NumericalError" and "traceback" not in error
        assert cause in error["message"]

    def test_state_estimate_overflow(self, tmp_path):
        bundle = tmp_path / "bundle"
        bundle.mkdir()
        qio.write_json_atomic(str(bundle / "measure.json"), {"elements": [[[1e-300]], [[0.0]]]})
        qio.write_json_atomic(str(bundle / "rates.json"), {"rates": [8e7, -1.7e308]})
        self._expect_exit_4(tmp_path, "state", bundle, "PSD projection overflowed")

    def test_selfcal_overflow(self, tmp_path):
        bundle = tmp_path / "bundle"
        bundle.mkdir()
        qio.write_json_atomic(str(bundle / "selfcal.json"), {
            "outputs": [[[[1e150]], [[1e150]]], [[[1e150]], [[1e150]]]],
            "init_filters": [[[1.0]], [[1.0]]],
            "init_sources": [[[1e-160]], [[1e-160]]],
        })
        self._expect_exit_4(tmp_path, "selfcal", bundle, "a filter iterate is not finite")


class TestCommandLine:
    def test_version_text(self):
        result = run_cli(["--version"])
        assert result.exit_code == 0
        assert result.stdout == f"qtomo, version {qtomo.__version__}\n"

    @pytest.mark.parametrize("tol, t, dt", [
        ("--tol-psd", "--t", "--dt"),
        ("--tol-p", "--t", "--dt"),
        ("--tol-psd", "--t", "--d"),
    ], ids=["full", "global-prefix", "command-prefix"])
    def test_option_prefixes_are_usage_errors(self, tmp_path, tol, t, dt):
        model = tmp_path / "model.json"
        model.write_text('{"H": [[0.0]], "rho0": [[1.0]]}')
        out = tmp_path / "run" / "traj.json"
        result = run_cli([tol, "1e-9", "dynamics", str(model), t, "0.2", dt, "0.1",
                          "--out", str(out)])
        if dt == "--dt" and tol == "--tol-psd":
            assert result.exit_code == 0, result.output
        else:
            assert result.exit_code == 2
            assert "usage: qtomo" in result.stderr and not out.parent.exists()


class TestCountsMemoBytes:
    def test_golden_counts_document(self, fixture_files, tmp_path):
        out = tmp_path / "golden"
        result = run_cli([
            "simulate", fixture_files["source"], fixture_files["device"],
            "--shots", str(10**6), "--seed", "2024", "--out", str(out),
        ])
        assert result.exit_code == 0
        # every key and value of the memo before the digest, plus the digest of events.csv
        assert (out / "counts.json").read_text() == (
            '{"counts":[%s],"events_sha256":"%s","seed":2024,"shots":1000000}\n'
            % (",".join(map(str, GOLDEN_COUNTS)), GOLDEN_EVENTS_SHA256))


def _entry_inputs(tmp_path):
    """argv of every command kind, on small inputs under tmp_path, by a short name: each
    command runs in process (ResourceWarning check) and as `python -m qtomo`."""
    from support import probe_states

    rho = qtomo.density_from_state(np.array([0.6, 0.8], dtype=complex))
    source, device = tmp_path / "source.json", tmp_path / "device.json"
    qio.write_json_atomic(str(source), qio.density_to_json(rho))
    det = qtomo.Detector(qtomo.pauli_six_measure(), np.arange(1.0, 7.0))
    qio.write_json_atomic(str(device), qio.measure_to_json(det.measure, det.scale))
    # a state bundle whose log is parsed (no counts.json)
    state = tmp_path / "state"
    (state / "events").mkdir(parents=True)
    qio.write_json_atomic(str(state / "measure.json"), qio.measure_to_json(det.measure))
    log, _ = qtomo.sample_events(qtomo.ExperimentConfig(3, 5000, rho, det.measure))
    (state / "events" / "run.csv").write_text(qtomo.event_log_to_csv(log))
    probes = probe_states(2)
    (tmp_path / "instrument" / "probes").mkdir(parents=True)
    for i, probe in enumerate(probes):
        qio.write_json_atomic(str(tmp_path / "instrument" / "probes" / f"p{i}.json"),
                              qio.density_to_json(probe))
    inst = qtomo.Instrument(((np.diag([1.0, 0.0]),), (np.diag([0.0, 1.0]),)))
    tables = np.stack([qtomo.joint_probabilities(inst, det.measure, p) for p in probes])
    qio.write_json_atomic(str(tmp_path / "instrument" / "measure.json"),
                          qio.measure_to_json(det.measure, det.scale))
    qio.write_json_atomic(str(tmp_path / "instrument" / "tables.json"), {"tables": tables})
    model = tmp_path / "model.json"
    qio.write_json_atomic(str(model), {"H": qio.matrix_to_json(qtomo.PAULI[1]),
                                       "rho0": qio.matrix_to_json(np.diag([1.0, 0.0]))})
    return {
        "simulate": ["simulate", str(source), str(device), "--shots", "5000", "--seed", "4",
                     "--out", str(tmp_path / "sim")],
        "tomo-state": ["tomo", "state", str(state), "--out", str(tmp_path / "st" / "r.json")],
        "tomo-instrument": ["tomo", "instrument", str(tmp_path / "instrument"),
                            "--out", str(tmp_path / "in" / "r.json")],
        "dynamics": ["dynamics", str(model), "--t", "0.4", "--dt", "0.1", "--method", "slice",
                     "--richardson", "--out", str(tmp_path / "dyn" / "t.json")],
        "report-uncertainty": ["report", "uncertainty", str(source), str(device),
                               "--out", str(tmp_path / "unc" / "r.json"),
                               "--plot-csv", str(tmp_path / "unc" / "p.csv")],
        # exit 2: the bundle has no measure.json
        "tomo-failing": ["tomo", "state", str(tmp_path / "instrument"),
                         "--out", str(tmp_path / "bad" / "r.json")],
    }


class TestProcessEntry:
    """`python -m qtomo` and the console script run qtomo.__main__.run, which freezes the
    heap; callers in a running process get cli.main and a collector left as it was."""

    @pytest.mark.parametrize("name", ["dynamics", "tomo-failing"])
    def test_in_process_main_leaves_the_collector_alone(self, tmp_path, name):
        argv = _entry_inputs(tmp_path)[name]
        before = gc.isenabled(), gc.get_freeze_count()
        importlib.import_module("qtomo.__main__")
        assert run_cli(argv).exit_code == (0 if name == "dynamics" else 2)
        assert (gc.isenabled(), gc.get_freeze_count()) == before

    @pytest.mark.parametrize("name", ["simulate", "tomo-state", "tomo-instrument", "dynamics",
                                      "report-uncertainty", "tomo-failing"])
    def test_no_command_leaves_a_file_open(self, tmp_path, monkeypatch, name):
        # a frozen file object is never finalized at exit, so an unclosed one would never be
        # flushed: every command must close what it opens
        argv = _entry_inputs(tmp_path)[name]
        gc.collect()
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook",
                            lambda u: unraisable.append(f"{u.exc_type.__name__}: {u.exc_value}"))
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            result = run_cli(argv)
            gc.collect()
        assert result.exit_code == (2 if name == "tomo-failing" else 0), result.output
        assert unraisable == []

    # python -m qtomo runs qtomo/__main__.py as __main__, which runpy does below after the
    # handler is registered; the console script is the module setuptools generates
    _ATEXIT_ENTRIES = {
        "python-m": "import atexit, runpy; atexit.register(print, 'atexit ran'); "
                    "runpy.run_module('qtomo', run_name='__main__', alter_sys=True)",
        "console-script": "import atexit, sys; atexit.register(print, 'atexit ran'); "
                          "from qtomo.__main__ import run; sys.exit(run())",
    }

    @pytest.mark.parametrize("entry", sorted(_ATEXIT_ENTRIES))
    def test_process_entry_ends_as_the_interpreter_would(self, tmp_path, entry):
        # run() ends the process with os._exit: atexit handlers still run, every byte written
        # to stdout and stderr reaches the pipe, and the exit codes are main's
        env = dict(os.environ)
        env.pop("PYTHONUNBUFFERED", None)  # stdout on a pipe is then block-buffered
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src"), env.get("PYTHONPATH", "")])
        deficient = tmp_path / "deficient"
        qio.write_json_atomic(str(deficient / "measure.json"),
                              qio.measure_to_json(qtomo.projective_measure(np.eye(2))))
        qio.write_json_atomic(str(deficient / "rates.json"), {"rates": [0.5, 0.5]})
        cases = [(["--version"], 0, "qtomo, version"),
                 (["dynamics", "model.json"], 2, "required"),
                 (["tomo", "state", str(deficient), "--out", str(tmp_path / "r" / "r.json")], 3,
                  "RankDeficiencyError")]
        for argv, code, text in cases:
            expected = run_cli(argv)
            got = subprocess.run([sys.executable, "-c", self._ATEXIT_ENTRIES[entry], *argv],
                                 env=env, capture_output=True, text=True, timeout=120)
            assert (got.returncode, expected.exit_code) == (code, code), (argv, got.stderr)
            assert got.stdout == expected.stdout + "atexit ran\n", argv
            assert got.stderr == expected.stderr, argv
            assert text in got.stdout + got.stderr, argv

    @pytest.mark.parametrize("entry", [
        ["-m", "qtomo"],
        ["-c", "import sys; from qtomo.__main__ import run; sys.exit(run())"],
    ], ids=["python-m", "console-script"])
    def test_process_entry_writes_what_main_writes(self, tmp_path, entry):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src"), env.get("PYTHONPATH", "")])
        commands_a, commands_b = _entry_inputs(tmp_path / "a"), _entry_inputs(tmp_path / "b")
        for name in ("tomo-state", "dynamics", "tomo-failing"):
            inproc, proc = commands_a[name], commands_b[name]
            expected = run_cli(inproc)
            got = subprocess.run([sys.executable, *entry, *proc], env=env, capture_output=True,
                                 text=True, timeout=120)
            assert (got.returncode, got.stdout) == (expected.exit_code, expected.stdout), name
            assert got.stderr == expected.stderr.replace(str(tmp_path / "a"),
                                                         str(tmp_path / "b")), name
            mine, theirs = (Path(argv[argv.index("--out") + 1]).parent for argv in (proc, inproc))
            outputs = sorted(path.name for path in mine.iterdir())
            assert outputs == sorted(path.name for path in theirs.iterdir()), name
            assert "manifest.json" in outputs, name
            for output in set(outputs) - {"manifest.json"}:  # the manifest holds timings
                assert (mine / output).read_bytes() == (theirs / output).read_bytes(), output

    def test_benchmark_in_process_entry(self, fixture_files, tmp_path):
        # perfbench/run.py's in-process iterations call main.main with these keywords inside
        # spans.Tracer: the same bytes on every call, and the same as a `python -m qtomo` run
        root = Path(__file__).resolve().parents[1]
        spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                      root / "perfbench" / "spans.py")
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        from qtomo import cli

        def commands(bundle):
            (bundle / "events").mkdir(parents=True)
            (bundle / "measure.json").write_bytes(Path(fixture_files["device"]).read_bytes())
            return [["simulate", fixture_files["source"], fixture_files["device"], "--shots",
                     "5000", "--seed", "4", "--out", str(bundle / "events")],
                    ["tomo", "state", str(bundle), "--out", str(bundle / "run" / "report.json")]]

        def outputs(bundle):
            return [(bundle / name).read_bytes()
                    for name in ("events/events.csv", "events/counts.json", "run/report.json")]

        with spans.Tracer() as tracer:
            for run in ("a", "b"):
                for argv in commands(tmp_path / run):
                    try:
                        cli.main.main(args=argv, prog_name="qtomo", standalone_mode=False)
                        code = 0
                    except SystemExit as exit_:
                        code = exit_.code
                    assert code == 0, (run, argv)
        assert tracer.stats["tomography.state_tomography"][0] == 2
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), env.get("PYTHONPATH", "")])
        for argv in commands(tmp_path / "m"):
            subprocess.run([sys.executable, "-m", "qtomo", *argv], env=env, check=True,
                           capture_output=True, timeout=120)
        assert outputs(tmp_path / "a") == outputs(tmp_path / "b") == outputs(tmp_path / "m")
