"""csisense: a hardware-independent WiFi CSI sensing toolkit.

Everything runs against the built-in multipath simulator, so the whole
pipeline -- frame codec, wireless phase calibration, bearing estimation,
channel scanning, and triangulation -- is verifiable against ground
truth without any radio hardware.
"""

from .core import (
    SPEED_OF_LIGHT,
    SUBCARRIER_SPACING_HZ,
    ArrayGeometry,
    BearingEstimate,
    CalibrationMatrix,
    ChannelSpec,
    ConfigurationError,
    CsiFrame,
    CsiSenseError,
    DegenerateGeometryError,
    DimensionMismatchError,
    FrameValidationError,
    Pose2D,
    Profile2D,
    apply_calibration,
    apply_calibration_block,
    ground_truth_bearing,
    steering_vector,
    subcarrier_frequencies,
    subcarrier_indices,
    usable_subcarrier_count,
    wavelength,
    wrap_angle,
)
from .synth import (
    ApSpec,
    PathComponent,
    Reflection,
    SimScenario,
    rssi_at,
    synth_frame,
    synth_trajectory,
)
from .codec import (
    CodecError,
    CaptureTruncatedError,
    FrameBlock,
    IngestStats,
    decode_frame,
    encode_frame,
    format_mac,
    ingest_capture_blocks,
    ingest_stream_blocks,
    parse_mac,
    read_capture,
    read_capture_frame,
    write_capture,
)
from .calibration import (
    CalibrationDataset,
    CalibrationError,
    CalibrationResult,
    CoarseResult,
    LowConfidenceError,
    calibrate,
    coarse_calibration,
    load_calibration,
    save_calibration,
)
from .aoa import (
    AoaConfig,
    PathEstimate,
    UnsupportedGeometryError,
    average_profiles,
    bartlett_profile,
    bearing_csi_estimator,
    estimate_bearing,
    music_spectrum,
    spotfi_estimate,
    triangulate,
    write_profile_pgm,
)
from .scanner import (
    ApRecord,
    Rescan,
    ScanPolicy,
    ScannerState,
    Stay,
    Switch,
    run_walkthrough,
    scan_all,
    step,
)
from .scenario import (
    disc_trajectory,
    load_scenario,
    loop_trajectory,
    random_bias,
    read_poses_csv,
    write_poses_csv,
)

__version__ = "0.1.0"
