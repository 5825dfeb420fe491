"""qtomo: a finite-dimensional quantum tomography workbench.

Simulates sources, detectors, filters and instruments; reconstructs density
matrices, quantum measures and completely positive maps from measurement
statistics; and provides dissipative dynamics and uncertainty diagnostics.

Submodules load on first use: ``qtomo.X`` and ``from qtomo import X`` import
the submodule that defines X the first time X is asked for (PEP 562), so a
command or script pays only for the engines it touches.
"""

from importlib import import_module

__version__ = "0.1.0"

# The public names of each submodule, re-exported from the package.
_EXPORTS = {
    "channels": (
        "CPReport",
        "FilterClass",
        "Instrument",
        "apply_superop",
        "choi_rank",
        "choi_transform",
        "classify_filter",
        "is_completely_positive",
        "kraus_apply",
        "kraus_from_choi",
        "kraus_from_superop",
        "pi_operator",
        "superop_from_action",
        "superop_from_kraus",
    ),
    "cli": ("main",),
    "dynamics": (
        "LindbladModel",
        "SpectralLines",
        "Trajectory",
        "evolution_operator",
        "lie_product",
        "lindblad_evolve",
        "liouvillian",
        "poisson_bracket",
        "rydberg_ritz_lines",
        "sliced_master",
        "von_neumann_evolve",
    ),
    "errors": ("ContractViolation", "NumericalError", "RankDeficiencyError"),
    "measures": (
        "CompletenessReport",
        "Detector",
        "MeasureReport",
        "QuantumMeasure",
        "informational_completeness",
        "measured_quantity",
        "pauli_six_measure",
        "projective_measure",
        "response_probabilities",
        "tetrahedron_measure",
        "validate_measure",
    ),
    "ops": (
        "PAULI",
        "DensityReport",
        "density_from_state",
        "hermitian_basis",
        "quantum_value",
        "trace_distance",
        "validate_density",
    ),
    "optics": (
        "Leaf",
        "Split",
        "apply_jones",
        "beam_splitter",
        "cascade_measure",
        "degree_of_polarization",
        "density_to_stokes",
        "stokes_to_density",
    ),
    "simulate": (
        "EventLog",
        "ExperimentConfig",
        "event_log_from_csv",
        "event_log_to_csv",
        "joint_probabilities",
        "sample_events",
    ),
    "tomography": (
        "ReconstructionReport",
        "SelfCalibrationResult",
        "detector_tomography",
        "instrument_tomography",
        "process_tomography",
        "project_psd",
        "rates_from_counts",
        "self_calibrating_tomography",
        "state_tomography",
    ),
    "uncertainty": (
        "ExcessReport",
        "RobertsonReport",
        "UncertaintyReport",
        "q_uncertainty",
        "robertson_check",
        "statistical_vs_quantum",
    ),
}
_SUBMODULES = frozenset((*_EXPORTS, "io"))
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGIN)


def __getattr__(name):
    if name in _SUBMODULES:
        # Importing a submodule also binds it on the package.
        return import_module(f"{__name__}.{name}")
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_ORIGIN, *_SUBMODULES})
