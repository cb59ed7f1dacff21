"""Gaussian quantum-optics simulation of linear and parametric-amplifier
interferometers, with homodyne signal/noise/SNR extraction, closed-form
cross-checks, and a truncated Fock-space validation oracle."""

from types import ModuleType as _ModuleType

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
    evaluate_circuit,
    monitor_stats,
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

#: Every public name imported above, but not the submodules those imports bind.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
