"""Gaussian quantum-optics simulation of linear and parametric-amplifier
interferometers, with homodyne signal/noise/SNR extraction, closed-form
cross-checks, and a truncated Fock-space validation oracle."""

from .exceptions import (
    ConsistencyError,
    NumericalError,
    ScenarioParseError,
    TruncationError,
    ValidationError,
)
from .gaussian import (
    GaussianMap,
    GaussianState,
    apply_map,
    compose,
    displace,
    displacement_map,
    identity_map,
    quadrature_stats,
    symplectic_form,
    vacuum_state,
)
from .elements import (
    PaGain,
    SplitterSpec,
    beam_splitter,
    loss_channel,
    phase_shifter,
    single_mode_squeezer,
    two_mode_squeezer,
)
from .circuits import (
    CircuitSpec,
    CompiledCircuit,
    ModulationMode,
    MonitorReading,
    StageSnapshot,
    Topology,
    build_circuit,
    build_degenerate_sui,
    build_direct_homodyne,
    build_mzi,
    build_nested_sui,
    evaluate_circuit,
    monitor_stats,
    stack_circuits,
    stage_snapshots,
)
from .metrology import (
    LossTolerancePoint,
    MixtureAngle,
    ResourceSummary,
    SnrReport,
    channel_report,
    closed_forms,
    dsui_output_noise,
    dsui_snr,
    enhancement_and_resources,
    loss_tolerance_scan,
    mixture_angles,
    operating_point,
    operating_points,
    probe_photon_number,
    split_snr,
    su2_snr,
    sui_output_noise,
    sui_snr_amplitude,
    sui_snr_optimum,
    sui_snr_phase,
)
from .fock import ComparisonReport, FockConfig, compare_with_gaussian, simulate_fock

__version__ = "0.1.0"

__all__ = [
    "CircuitSpec", "CompiledCircuit", "ComparisonReport", "ConsistencyError",
    "FockConfig", "GaussianMap", "GaussianState", "LossTolerancePoint",
    "MixtureAngle", "ModulationMode", "MonitorReading", "NumericalError", "PaGain",
    "ResourceSummary", "ScenarioParseError", "SnrReport", "SplitterSpec",
    "StageSnapshot", "Topology", "TruncationError", "ValidationError",
    "apply_map", "beam_splitter", "build_circuit", "build_degenerate_sui",
    "build_direct_homodyne", "build_mzi", "build_nested_sui",
    "channel_report", "closed_forms", "compare_with_gaussian", "compose",
    "displace", "displacement_map", "dsui_output_noise", "dsui_snr",
    "enhancement_and_resources", "evaluate_circuit", "identity_map",
    "loss_channel", "loss_tolerance_scan", "mixture_angles", "monitor_stats",
    "operating_point", "operating_points", "phase_shifter",
    "probe_photon_number", "quadrature_stats", "simulate_fock",
    "single_mode_squeezer", "split_snr", "stack_circuits",
    "stage_snapshots", "su2_snr", "sui_output_noise", "sui_snr_amplitude", "sui_snr_optimum",
    "sui_snr_phase", "symplectic_form", "two_mode_squeezer", "vacuum_state",
]
