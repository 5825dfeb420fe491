import functools
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import qtomo
from qtomo import io as qio
from support import run_cli

# frozen output of the built tool for seed 2024, 10^6 shots on the fixture below
GOLDEN_COUNTS = [0, 326505, 6735, 166116, 166485, 120085, 214074]
# sha256 of that run's events.csv, recorded before the CSV writer was vectorised
GOLDEN_EVENTS_SHA256 = "51fd1ba046188b9036018cfa283fce158eed22aaa71760e719f1dafb4f182a32"
# sha256 of canonical JSON outputs (the model and bundle of the golden-bytes tests below),
# recorded before the JSON writer formatted each array in one call
GOLDEN_TRAJECTORY_SHA256 = {
    "lindblad": "3864d3d1b814bec4fe17900485e2a53d0ba1f79786e3d1e541325fae343c9a80",
    "slice": "d1411cc14eccc3309d6e5a8eb3e4a5e3cbb3e3eeff640dd909bde44fc75bb097",
}
GOLDEN_PROCESS_SHA256 = "4856382ba282aece35f619d57a19d41d1912b84831ac19dff3be776c168ddde7"


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

    def test_coincidence_log_in_state_bundle(self, tmp_path):
        bundle = self._state_bundle(tmp_path, [
            "# seed=1\n# generator=philox4x64\n# n_branches=1\n# n_elements=6\nshot,j,k\n0,1,1\n"])
        self._expect_exit_2(tmp_path, "state", bundle, "is a CoincidenceLog")

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
    ], ids=["truncated", "ragged", "flat", "undecodable", "scalar", "string-dim"])
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
    ], ids=["non-numeric", "ragged", "null", "scalar", "three-axes"])
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
    ], ids=["non-numeric", "ragged", "two-axes"])
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
        tables = np.stack([qtomo.joint_probabilities(inst, det, p) for p in probes])
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
            cfg = qtomo.ExperimentConfig(600 + i, 200_000, probe, det, inst)
            log, _ = qtomo.sample_coincidences(cfg)
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

    def test_classify_unitary_lossless(self, tmp_path):
        chan = tmp_path / "chan.json"
        qio.write_json_atomic(str(chan), qio.channel_to_json([qtomo.PAULI[1]]))
        out = tmp_path / "cls.json"
        result = run_cli(["report", "classify", str(chan), "--out", str(out)])
        assert result.exit_code == 0
        report = json.loads(out.read_text())
        assert report["lossless"] and report["passive"] and not report["mixing"]


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

    def test_unexpected_error_exits_4_with_manifest(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("unexpected failure")

        monkeypatch.setattr("qtomo.tomography.state_tomography", broken)
        bundle = tmp_path / "bundle"
        bundle.mkdir()
        qio.write_json_atomic(str(bundle / "measure.json"),
                              qio.measure_to_json(qtomo.pauli_six_measure()))
        qio.write_json_atomic(str(bundle / "rates.json"), {"rates": [1 / 6] * 6})
        out = tmp_path / "run" / "report.json"
        result = run_cli(["tomo", "state", str(bundle), "--out", str(out)])
        assert result.exit_code == 4
        error = json.loads((out.parent / "manifest.json").read_text())["error"]
        assert error["type"] == "RuntimeError"
        assert error["message"] == "unexpected failure"
        assert "in broken" in error["traceback"]
        assert not out.exists()

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
