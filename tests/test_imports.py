"""The package loads its submodules on first use, and each command only the engines it runs."""

import importlib
import json
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

import qtomo
from qtomo import io as qio
from support import probe_log_bundle, probe_states

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
ENGINES = frozenset({"channels", "dynamics", "measures", "ops", "optics", "simulate",
                     "tomography", "uncertainty"})

# The package's public names, by the submodule that defines them.
EXPORTS = {
    "channels": "CPReport FilterClass Instrument apply_superop choi_rank choi_transform "
                "classify_filter is_completely_positive is_hermiticity_preserving kraus_apply "
                "kraus_from_choi kraus_from_superop pi_operator superop_from_action "
                "superop_from_choi superop_from_kraus",
    "cli": "main",
    "dynamics": "LindbladModel SpectralLines Trajectory ehrenfest_derivative evolution_operator "
                "gibbs_state lie_product lindblad_evolve liouvillian poisson_bracket "
                "rydberg_ritz_lines schrodinger_evolve sliced_master spectral_solution "
                "von_neumann_evolve",
    "errors": "ContractViolation NumericalError RankDeficiencyError",
    "measures": "CompletenessReport Detector MeasureReport QuantumMeasure "
                "coherent_partition_measure informational_completeness is_projective "
                "measured_quantity pauli_six_measure projective_measure response_probabilities "
                "statistical_expectation tetrahedron_measure validate_measure",
    "ops": "PAULI DensityReport density_from_state expand_hermitian hermitian_basis normalize "
           "quantum_value trace_distance validate_density",
    "optics": "Leaf Split apply_jones beam_splitter cascade_measure degree_of_polarization "
              "density_to_stokes stokes_to_density",
    "simulate": "EventLog ExperimentConfig empirical_rates event_log_from_csv "
                "event_log_to_csv joint_probabilities sample_events",
    "tomography": "ReconstructionReport SelfCalibrationResult detector_tomography "
                  "instrument_tomography process_tomography project_psd rates_from_counts "
                  "self_calibrating_tomography state_tomography",
    "uncertainty": "ExcessReport MeasurementErrorReport RobertsonReport SpectrumReport "
                   "UncertaintyReport measurement_uncertainty q_uncertainty robertson_check "
                   "spectrum_membership statistical_vs_quantum",
}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, env.get("PYTHONPATH", "")])
    return env


def _loaded_modules(*argv):
    """Run ``python -m qtomo ARGV``; the modules it imported, from -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "qtomo", *argv],
                          env=_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


def _loaded_engines(*argv):
    """The engine modules that ``python -m qtomo ARGV`` imported."""
    names = _loaded_modules(*argv)
    return {name[len("qtomo."):] for name in names if name.startswith("qtomo.")} & ENGINES


class TestPackage:
    @pytest.mark.parametrize("module, names", sorted(EXPORTS.items()))
    def test_every_export_is_the_submodule_attribute(self, module, names):
        submodule = importlib.import_module(f"qtomo.{module}")
        for name in names.split():
            assert getattr(qtomo, name) is getattr(submodule, name), name

    def test_exports_match_the_table(self):
        expected = {name for names in EXPORTS.values() for name in names.split()}
        assert set(qtomo.__all__) == expected
        assert expected <= set(dir(qtomo))

    def test_from_import_and_submodule_attributes(self):
        from qtomo import QuantumMeasure, io, tomography

        assert QuantumMeasure is qtomo.measures.QuantumMeasure
        assert io is qtomo.io and tomography.state_tomography is qtomo.state_tomography

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            qtomo.no_such_name  # noqa: B018

    def test_import_loads_no_submodule(self):
        code = "import qtomo, sys; print(sorted(m for m in sys.modules if m.startswith('qtomo.')))"
        out = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True,
                             text=True, check=True, timeout=120).stdout
        assert out.strip() == "[]"


def _probes(bundle, probes):
    (bundle / "probes").mkdir(parents=True)
    for i, probe in enumerate(probes):
        qio.write_json_atomic(str(bundle / "probes" / f"p{i}.json"), qio.density_to_json(probe))


def _detector_bundle(bundle):
    probes = probe_states(2)
    _probes(bundle, probes)
    target = qtomo.tetrahedron_measure()
    rates = np.stack([qtomo.response_probabilities(target, p) for p in probes])
    qio.write_json_atomic(str(bundle / "rates.json"), {"rates": rates})


def _process_bundle(bundle):
    probes = probe_states(2)
    _probes(bundle, probes)
    (bundle / "outputs").mkdir()
    for i, probe in enumerate(probes):
        qio.write_json_atomic(str(bundle / "outputs" / f"p{i}.json"), qio.density_to_json(probe))


def _instrument_bundle(bundle):
    probes = probe_states(2)
    _probes(bundle, probes)
    inst = qtomo.Instrument(((np.diag([1.0, 0.0]),), (np.diag([0.0, 1.0]),)))
    det = qtomo.Detector(qtomo.tetrahedron_measure(), np.arange(1.0, 5.0))
    tables = np.stack([qtomo.joint_probabilities(inst, det.measure, p) for p in probes])
    qio.write_json_atomic(str(bundle / "measure.json"), qio.measure_to_json(det.measure, det.scale))
    qio.write_json_atomic(str(bundle / "tables.json"), {"tables": tables})


class TestCommandImports:
    def test_version_loads_no_engine(self):
        assert _loaded_engines("--version") == set()

    def test_float_formatter_loads_with_the_first_float_array(self, tmp_path):
        assert "qtomo._floattext" not in _loaded_modules("--version")
        model = tmp_path / "model.json"
        model.write_text('{"H": [[0.0]], "rho0": [[1.0]]}')
        assert "qtomo._floattext" in _loaded_modules(
            "dynamics", str(model), "--t", "0.1", "--dt", "0.1", "--out", str(tmp_path / "t.json"))

    def test_dynamics_loads_only_its_engine(self, tmp_path):
        model = tmp_path / "model.json"
        qio.write_json_atomic(str(model), {
            "H": qio.matrix_to_json(qtomo.PAULI[1]),
            "rho0": qio.matrix_to_json(np.diag([1.0, 0.0])),
            "lindblad": {"L": [qio.matrix_to_json(np.diag([0.0, 1.0]))], "gamma": [0.5]},
        })
        loaded = _loaded_engines("dynamics", str(model), "--t", "0.2", "--dt", "0.1",
                                 "--method", "lindblad", "--out", str(tmp_path / "traj.json"))
        assert loaded == {"dynamics", "ops"}

    def test_manifest_records_startup_cpu(self, tmp_path):
        model = tmp_path / "model.json"
        qio.write_json_atomic(str(model), {"H": [[0.0]], "rho0": [[1.0]]})
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run([sys.executable, "-m", "qtomo", "dynamics", str(model), "--t", "0.1",
                        "--dt", "0.1", "--out", str(tmp_path / "run" / "traj.json")],
                       env=_env(), check=True, capture_output=True, timeout=120)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        child_cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        # start-up is part of the process's CPU time; the two clocks may differ by a tick
        assert 0.0 < manifest["startup_cpu_s"] <= child_cpu + 0.02

    @pytest.mark.parametrize("mode, build", [
        ("detector", _detector_bundle),
        ("process", _process_bundle),
        ("instrument", _instrument_bundle),
    ])
    def test_tomo_on_exact_data_loads_no_sampler(self, tmp_path, mode, build):
        build(tmp_path / "bundle")
        loaded = _loaded_engines("tomo", mode, str(tmp_path / "bundle"),
                                 "--out", str(tmp_path / "report.json"))
        assert "tomography" in loaded
        assert not loaded & {"dynamics", "optics", "simulate", "uncertainty"}

    @pytest.mark.parametrize("mode", ["detector", "instrument"])
    def test_tomo_on_memos_under_other_names_loads_no_sampler(self, tmp_path, mode):
        bundle = probe_log_bundle(tmp_path / "bundle", mode, 500, 3)
        loaded = _loaded_engines("tomo", mode, str(bundle),
                                 "--out", str(tmp_path / "run" / "r.json"))
        assert "tomography" in loaded and "simulate" not in loaded
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert {name: log["rates_from"] for name, log in manifest["event_logs"].items()} == {
            f"p{i}.csv": f"p{i}.json" for i in range(4)}

    def test_commands_load_no_click(self, tmp_path):
        # the command line runs on argparse; numpy is the only runtime dependency
        model = tmp_path / "model.json"
        model.write_text('{"H": [[0.0]], "rho0": [[1.0]]}')
        qio.write_json_atomic(str(tmp_path / "source.json"), qio.density_to_json(np.diag([1.0, 0.0])))
        qio.write_json_atomic(str(tmp_path / "device.json"),
                              qio.measure_to_json(qtomo.pauli_six_measure(), np.arange(1.0, 7.0)))
        _process_bundle(tmp_path / "process")
        for argv in (["--version"],
                     ["simulate", str(tmp_path / "source.json"), str(tmp_path / "device.json"),
                      "--shots", "10", "--out", str(tmp_path / "events")],
                     ["tomo", "process", str(tmp_path / "process"),
                      "--out", str(tmp_path / "p.json")],
                     ["dynamics", str(model), "--t", "0.1", "--dt", "0.1",
                      "--out", str(tmp_path / "t.json")]):
            loaded = _loaded_modules(*argv)
            assert "qtomo.cli" in loaded, argv
            assert not {name for name in loaded if name.split(".")[0] == "click"}, argv

    def test_detector_commands_load_no_masked_arrays(self, tmp_path):
        # a Detector checks its scale without np.unique(axis=0), which imports numpy.ma
        qio.write_json_atomic(str(tmp_path / "source.json"), qio.density_to_json(np.diag([1.0, 0.0])))
        qio.write_json_atomic(str(tmp_path / "device.json"),
                              qio.measure_to_json(qtomo.pauli_six_measure(), np.arange(1.0, 7.0)))
        loaded = _loaded_modules("simulate", str(tmp_path / "source.json"),
                                 str(tmp_path / "device.json"), "--shots", "100",
                                 "--out", str(tmp_path / "events"))
        assert "qtomo.measures" in loaded and "numpy.ma" not in loaded
        _instrument_bundle(tmp_path / "instrument")
        loaded = _loaded_modules("tomo", "instrument", str(tmp_path / "instrument"),
                                 "--out", str(tmp_path / "i.json"))
        assert "qtomo.tomography" in loaded and "numpy.ma" not in loaded

    @pytest.mark.parametrize("kind, engines", [
        ("uncertainty", {"measures", "ops", "uncertainty"}),
        ("lines", {"dynamics", "ops"}),
        ("classify", {"channels", "ops"}),
    ])
    def test_each_report_kind_loads_only_its_engines(self, tmp_path, kind, engines):
        argv = next(argv for argv in _every_command(tmp_path) if argv[:2] == ["report", kind])
        assert _loaded_engines(*argv) == engines

    def test_detection_commands_load_no_channels(self, tmp_path):
        # channels serves coincidences, processes, instruments and self-calibration only
        qio.write_json_atomic(str(tmp_path / "source.json"), qio.density_to_json(np.diag([1.0, 0.0])))
        qio.write_json_atomic(str(tmp_path / "device.json"),
                              qio.measure_to_json(qtomo.pauli_six_measure(), np.arange(1.0, 7.0)))
        bundle = tmp_path / "state"
        loaded = _loaded_engines("simulate", str(tmp_path / "source.json"),
                                 str(tmp_path / "device.json"), "--shots", "100",
                                 "--out", str(bundle / "events"))
        assert "simulate" in loaded and "channels" not in loaded
        qio.write_json_atomic(str(bundle / "measure.json"),
                              qio.measure_to_json(qtomo.pauli_six_measure()))
        loaded = _loaded_engines("tomo", "state", str(bundle), "--out", str(tmp_path / "s.json"))
        assert "tomography" in loaded and "channels" not in loaded
        _detector_bundle(tmp_path / "detector")
        loaded = _loaded_engines("tomo", "detector", str(tmp_path / "detector"),
                                 "--out", str(tmp_path / "d.json"))
        assert "tomography" in loaded and "channels" not in loaded


def _every_command(tmp_path):
    """argv of every command kind on small inputs under tmp_path, in an order that runs:
    --version, simulate, each tomo mode, dynamics and each report kind."""
    rho = np.diag([1.0, 0.0])
    source, device = tmp_path / "source.json", tmp_path / "device.json"
    qio.write_json_atomic(str(source), qio.density_to_json(rho))
    qio.write_json_atomic(str(device),
                          qio.measure_to_json(qtomo.pauli_six_measure(), np.arange(1.0, 7.0)))
    state = tmp_path / "state"
    qio.write_json_atomic(str(state / "measure.json"), qio.measure_to_json(qtomo.pauli_six_measure()))
    _detector_bundle(tmp_path / "detector")
    _process_bundle(tmp_path / "process")
    _instrument_bundle(tmp_path / "instrument")
    filters = [qtomo.superop_from_kraus([np.eye(2)]), qtomo.superop_from_kraus([qtomo.PAULI[1]])]
    sources = [rho, np.eye(2) / 2]
    qio.write_json_atomic(str(tmp_path / "selfcal" / "selfcal.json"), {
        "outputs": [[qio.matrix_to_json(qtomo.apply_superop(f, s)) for s in sources] for f in filters],
        "init_filters": [qio.matrix_to_json(f) for f in filters],
        "init_sources": [qio.matrix_to_json(s) for s in sources]})
    model = tmp_path / "model.json"
    qio.write_json_atomic(str(model), {"H": qio.matrix_to_json(qtomo.PAULI[1]),
                                       "rho0": qio.matrix_to_json(rho)})
    channel = tmp_path / "channel.json"
    qio.write_json_atomic(str(channel), qio.channel_to_json([qtomo.PAULI[1]]))
    out = str(tmp_path / "out")
    return [["--version"],
            ["simulate", str(source), str(device), "--shots", "100", "--out", str(state / "events")],
            *(["tomo", mode, str(tmp_path / mode), "--out", f"{out}/{mode}.json"]
              for mode in ("state", "detector", "process", "instrument", "selfcal")),
            ["dynamics", str(model), "--t", "0.2", "--dt", "0.1", "--method", "lindblad",
             "--out", f"{out}/traj.json"],
            ["report", "uncertainty", str(source), str(device), "--out", f"{out}/unc.json"],
            ["report", "lines", str(model), "--out", f"{out}/lines.json"],
            ["report", "classify", str(channel), "--out", f"{out}/classify.json"]]


class TestStartUp:
    def test_no_command_imports_dataclasses(self, tmp_path):
        # the records are NamedTuples and slotted classes, which generate no code at import
        for argv in _every_command(tmp_path):
            loaded = _loaded_modules(*argv)
            assert "qtomo.cli" in loaded and "dataclasses" not in loaded, argv

    def test_tomo_state_loads_the_sampler_only_to_parse_a_log(self, tmp_path):
        bundle = tmp_path / "bundle"
        source, device = tmp_path / "source.json", tmp_path / "device.json"
        qio.write_json_atomic(str(source), qio.density_to_json(np.diag([1.0, 0.0])))
        qio.write_json_atomic(str(device), qio.measure_to_json(qtomo.pauli_six_measure()))
        qio.write_json_atomic(str(bundle / "measure.json"),
                              qio.measure_to_json(qtomo.pauli_six_measure()))
        _loaded_modules("simulate", str(source), str(device), "--shots", "500", "--seed", "3",
                        "--out", str(bundle / "events"))
        tomo = ("tomo", "state", str(bundle), "--out", str(tmp_path / "run" / "report.json"))
        loaded = _loaded_engines(*tomo)
        assert "tomography" in loaded and "simulate" not in loaded
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["event_logs"]["events.csv"]["rates_from"] == "counts.json"
        # an edited log no longer has the memo's digest: it is parsed, with the sampler's reader
        log = bundle / "events" / "events.csv"
        log.write_text(log.read_text().replace("# seed=3", "# seed=4"))
        assert "simulate" in _loaded_engines(*tomo)
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["event_logs"]["events.csv"]["rates_from"] == "events.csv"
