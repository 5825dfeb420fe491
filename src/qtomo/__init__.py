"""qtomo: a finite-dimensional quantum tomography workbench.

Simulates sources, detectors, filters and instruments; reconstructs density
matrices, quantum measures and completely positive maps from measurement
statistics; and provides dissipative dynamics and uncertainty diagnostics.
"""

__version__ = "0.1.0"

from .channels import (
    CPReport,
    FilterClass,
    Instrument,
    apply_superop,
    choi_rank,
    choi_transform,
    classify_filter,
    is_completely_positive,
    is_hermiticity_preserving,
    kraus_apply,
    kraus_from_choi,
    kraus_from_superop,
    pi_operator,
    superop_from_action,
    superop_from_choi,
    superop_from_kraus,
)
from .dynamics import (
    LindbladModel,
    SpectralLines,
    Trajectory,
    ehrenfest_derivative,
    evolution_operator,
    gibbs_state,
    lie_product,
    lindblad_evolve,
    liouvillian,
    poisson_bracket,
    rydberg_ritz_lines,
    schrodinger_evolve,
    sliced_master,
    spectral_solution,
    von_neumann_evolve,
)
from .errors import ContractViolation, NumericalError, RankDeficiencyError
from .measures import (
    CompletenessReport,
    Detector,
    MeasureReport,
    QuantumMeasure,
    coherent_partition_measure,
    informational_completeness,
    is_projective,
    measured_quantity,
    pauli_six_measure,
    projective_measure,
    response_probabilities,
    statistical_expectation,
    tetrahedron_measure,
    validate_measure,
)
from .ops import (
    PAULI,
    DensityReport,
    density_from_state,
    expand_hermitian,
    hermitian_basis,
    intensity,
    normalize,
    quantum_value,
    trace_distance,
    validate_density,
)
from .optics import (
    Leaf,
    Split,
    apply_jones,
    beam_splitter,
    cascade_measure,
    degree_of_polarization,
    density_to_stokes,
    stokes_to_density,
)
from .simulate import (
    CoincidenceLog,
    EventLog,
    ExperimentConfig,
    empirical_rates,
    event_log_from_csv,
    event_log_to_csv,
    joint_probabilities,
    sample_coincidences,
    sample_detections,
)
from .tomography import (
    ReconstructionReport,
    SelfCalibrationResult,
    detector_tomography,
    instrument_tomography,
    process_tomography,
    project_psd,
    self_calibrating_tomography,
    state_tomography,
)
from .uncertainty import (
    ExcessReport,
    MeasurementErrorReport,
    RobertsonReport,
    SpectrumReport,
    UncertaintyReport,
    measurement_uncertainty,
    q_uncertainty,
    robertson_check,
    spectrum_membership,
    statistical_vs_quantum,
)
