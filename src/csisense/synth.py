"""Ground-truth multipath channel simulator.

Stands in for the radio hardware: builds CsiFrames from explicit path
lists, robot trajectories and injected hardware imperfections, and models
a multi-AP environment for the channel scanner.

Channel model per path p (ray sum):

    csi[i][t][j] = amp_p * exp(-j 2 pi f_j delay_p)
                         * exp(+j (2 pi / lambda_c) [cos aoa_p, sin aoa_p] . a_i)
                         * exp(+j (2 pi / lambda_c) [cos aod_p, sin aod_p] . b_t)

The time-of-flight term uses each subcarrier's absolute frequency; the
array term uses the center wavelength only, mirroring the narrowband
model the calibration pipeline assumes.  Both synthesizers add their paths
in one ray sum (`_sum_paths`) and finish each frame in one place (`_frame`).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    MAX_COORDINATE_M,
    SPEED_OF_LIGHT,
    ArrayGeometry,
    CalibrationMatrix,
    ChannelSpec,
    ConfigurationError,
    CsiFrame,
    FrameValidationError,
    Pose2D,
    _ground_truth_bearings,
    _pose_arrays,
    steering_vector,
    subcarrier_frequencies,
    wavelength,
    wrap_angle,
)

# A unit-amplitude single path reports this RSSI; every other level is
# relative to it.
REFERENCE_RSSI_DBM = -30.0

DEFAULT_PATH_LOSS_EXPONENT = 2.2
# The powers, dBm 1 m from a transmitter or an AP, that ApSpec, SimScenario
# and a scenario file take, and the path-loss exponents SimScenario and a
# scenario file take: wide of any real link, and narrow enough that no
# direct path's level over- or underflows for poses 0.5 m to
# MAX_COORDINATE_M away.
POWER_DBM_RANGE = (-150.0, 50.0)
PATH_LOSS_EXPONENT_RANGE = (0.0, 10.0)

DEFAULT_MAC = bytes.fromhex("020000000001")
# The SNRs, dB, that noise may take: wide of any real link, and narrow
# enough that the noise stays finite in a frame's complex64 csi.
SNR_DB_RANGE = (-100.0, 300.0)
# The reflections a Reflection may describe: wide of any real one, and
# narrow enough that its level stays finite in a frame's complex64 csi and
# its phase is more than rounding noise.
MAX_REL_AMPLITUDE = 100.0
EXCESS_DELAY_RANGE_S = (0.0, 10e-6)
AOA_OFFSET_RANGE = (-2.0 * np.pi, 2.0 * np.pi)


@dataclass(frozen=True)
class PathComponent:
    """One propagation path: arrival/departure angles, absolute delay, gain.

    Every field must be finite, the delay non-negative and the amplitude
    non-zero.
    """

    aoa: float  # radians, arrival angle at the receiver
    aod: float = 0.0  # radians, departure angle (used when n_tx > 1)
    delay_s: float = 0.0  # absolute time of flight, seconds
    amplitude: complex = 1.0 + 0.0j

    def __post_init__(self):
        for name in ("aoa", "aod", "delay_s", "amplitude"):
            if not cmath.isfinite(getattr(self, name)):
                raise ConfigurationError(f"path {name} must be finite, got {getattr(self, name)}")
        if self.delay_s < 0:
            raise ConfigurationError("path delay must be >= 0")
        if abs(self.amplitude) == 0:
            raise ConfigurationError("path amplitude must be non-zero")


@dataclass(frozen=True)
class Reflection:
    """Scenario-level reflected path, relative to the direct path.

    `rel_amplitude` is non-zero with magnitude at most MAX_REL_AMPLITUDE,
    and `excess_delay_s` and `aoa_offset` lie in EXCESS_DELAY_RANGE_S and
    AOA_OFFSET_RANGE, the bounds a scenario file's `[reflection.N]` keeps.
    """

    aoa_offset: float  # radians added to the direct path's arrival angle
    excess_delay_s: float  # seconds added to the direct path's delay
    rel_amplitude: float  # linear gain relative to the direct path
    random_phase: bool = True  # new uniform phase each packet

    def __post_init__(self):
        if not 0.0 < abs(self.rel_amplitude) <= MAX_REL_AMPLITUDE:  # NaN compares false
            raise ConfigurationError(
                f"reflection rel_amplitude must be non-zero and lie in "
                f"[-{MAX_REL_AMPLITUDE:g}, {MAX_REL_AMPLITUDE:g}], got {self.rel_amplitude:g}")
        _check_range("reflection excess_delay_s", self.excess_delay_s, EXCESS_DELAY_RANGE_S)
        _check_range("reflection aoa_offset", self.aoa_offset, AOA_OFFSET_RANGE)


@dataclass(frozen=True, eq=False)
class ApSpec:
    """One access point in the simulated environment.

    Its location lies within MAX_COORDINATE_M of the origin on each axis
    and its power in POWER_DBM_RANGE.
    """

    location: np.ndarray  # (2,) meters
    chanspec: ChannelSpec
    tx_power_dbm: float
    mac: bytes = DEFAULT_MAC

    def __post_init__(self):
        object.__setattr__(self, "location", np.asarray(self.location, dtype=np.float64))
        _check_location("ap location", self.location)
        _check_range("ap tx_power_dbm", self.tx_power_dbm, POWER_DBM_RANGE)


@dataclass(eq=False)
class SimScenario:
    """Everything needed to synthesize a dataset or a scanner walkthrough.

    The transmitter lies within MAX_COORDINATE_M of the origin on each
    axis, every pose is finite, the power lies in POWER_DBM_RANGE and the
    path-loss exponent in PATH_LOSS_EXPONENT_RANGE, the scenario file's
    bounds.  A reflection's level can still underflow far away, which
    `synth_trajectory` refuses, naming its pose.
    """

    tx_location: np.ndarray  # (2,) meters
    chanspec: ChannelSpec
    trajectory: list[tuple[int, Pose2D]]  # (timestamp_ns, pose), strictly increasing
    true_calibration: CalibrationMatrix | None = None
    snr_db: float | None = 30.0  # None disables noise
    per_packet_phase: bool = True
    reflections: list[Reflection] = field(default_factory=list)
    aps: list[ApSpec] = field(default_factory=list)
    tx_power_dbm: float = REFERENCE_RSSI_DBM
    path_loss_exponent: float = DEFAULT_PATH_LOSS_EXPONENT
    source_mac: bytes = DEFAULT_MAC
    seed: int = 0

    def __post_init__(self):
        self.tx_location = np.asarray(self.tx_location, dtype=np.float64)
        _check_location("tx_location", self.tx_location)
        stamps = []
        for ts, pose in self.trajectory:
            if not (math.isfinite(pose.x) and math.isfinite(pose.y) and math.isfinite(pose.theta)):
                raise ConfigurationError(f"trajectory pose at timestamp_ns {ts} must be finite, "
                                         f"got {pose}")
            stamps.append(ts)
        if any(b <= a for a, b in zip(stamps, stamps[1:])):
            raise ConfigurationError("trajectory timestamps must be strictly increasing")
        _check_snr(self.snr_db)
        _check_range("tx_power_dbm", self.tx_power_dbm, POWER_DBM_RANGE)
        if not math.isfinite(self.path_loss_exponent):
            raise ConfigurationError(f"path_loss_exponent must be finite, "
                                     f"got {self.path_loss_exponent}")
        _check_range("path_loss_exponent", self.path_loss_exponent, PATH_LOSS_EXPONENT_RANGE)


def rssi_at(ap_power_dbm: float, distance_m: float,
            exponent: float = DEFAULT_PATH_LOSS_EXPONENT) -> float:
    """Log-distance path loss: power - 10*n*log10(d / 1 m).

    Works on scalars and, element-wise, on arrays.
    """
    if np.any(np.asarray(distance_m) <= 0):
        raise ConfigurationError("distance must be positive")
    return ap_power_dbm - 10.0 * exponent * np.log10(distance_m)


def synth_frame(
    paths: list[PathComponent],
    geom: ArrayGeometry,
    chanspec: ChannelSpec,
    snr_db: float | None = None,
    rng_seed: int | np.random.Generator | None = None,
    tx_geom: ArrayGeometry | None = None,
    source_mac: bytes = DEFAULT_MAC,
    seq: int = 0,
    timestamp_ns: int = 0,
) -> CsiFrame:
    """Synthesize one CsiFrame from an explicit path list.

    paths[0] is the direct path; the noise level is scaled so that path
    alone achieves `snr_db` per element (None or +inf = noiseless; any
    other value must lie in SNR_DB_RANGE, as in a SimScenario).  RSSI is the
    noiseless mean element power referenced to REFERENCE_RSSI_DBM.
    Deterministic for a fixed seed.  A frame whose csi overflows complex64
    raises ConfigurationError naming its timestamp_ns.
    """
    if not paths:
        raise ConfigurationError("need at least one path")
    _check_snr(snr_db)
    rng = None if snr_db in (None, np.inf) else np.random.default_rng(rng_seed)
    with np.errstate(over="ignore", invalid="ignore"):  # as _frame asks
        return _frame(_ray_sum(paths, geom, chanspec, tx_geom), abs(paths[0].amplitude), rng,
                      snr_db, chanspec, source_mac, seq, timestamp_ns)


def synth_trajectory(
    scenario: SimScenario,
    geom: ArrayGeometry,
) -> list[tuple[Pose2D, CsiFrame]]:
    """Synthesize one frame per trajectory pose, time-ordered.

    Per pose: direct path from the ground-truth bearing and distance,
    configured reflections, element-wise hardware bias exp(1j*Phi_true),
    optional random common phase per frame, then noise.

    Random draws come from one generator seeded with `scenario.seed`, pose
    by pose, in this order: a uniform phase for each reflection with
    `random_phase` set (scenario order), then the common phase when
    `per_packet_phase` is set, then the noise (real parts, then imaginary
    parts).  No path's geometry draws anything: the bearing, delay,
    steering and time-of-flight phasors of every path of every pose come
    from one array pass first, which leaves that draw order unchanged.  A
    pose whose path amplitude or csi overflows is refused, naming its
    timestamp_ns.
    """
    rng = np.random.default_rng(scenario.seed)
    chanspec = scenario.chanspec
    bias = None
    if scenario.true_calibration is not None:
        cal = scenario.true_calibration
        if cal.chanspec != chanspec:
            raise ConfigurationError("true_calibration chanspec does not match scenario")
        if cal.n_rx != geom.n_antennas:
            raise ConfigurationError("true_calibration antenna count does not match geometry")
        bias = cal.rotor

    tx = scenario.tx_location
    xy, heading = _pose_arrays(pose for _, pose in scenario.trajectory)
    theta = _ground_truth_bearings(xy, heading, tx)[:, None]  # raises if a pose is on tx
    dist = np.hypot(xy[:, 0] - tx[0], xy[:, 1] - tx[1])
    level = (rssi_at(scenario.tx_power_dbm, dist, scenario.path_loss_exponent)
             - REFERENCE_RSSI_DBM) / 20.0
    reflections = scenario.reflections
    # (pose, path) arrays, the direct path first
    aoa = np.hstack([theta, wrap_angle(theta + [r.aoa_offset for r in reflections])])
    delay = (dist / SPEED_OF_LIGHT)[:, None] + [0.0, *(r.excess_delay_s for r in reflections)]
    steering = steering_vector(aoa, geom, wavelength(chanspec))
    tof = _tof(chanspec, delay)
    one_tx = np.ones((aoa.shape[1], 1))
    rows = zip(scenario.trajectory, aoa.tolist(), delay.tolist(), steering, tof)
    out = []
    with np.errstate(over="ignore", invalid="ignore"):  # as _frame asks
        for k, ((ts, pose), aoa_k, delay_k, rx, tof_k) in enumerate(rows):
            # scalar, as np.power over an array rounds some entries differently
            amp = 10.0 ** level[k]
            phases = [rng.uniform(0.0, 2.0 * np.pi) if r.random_phase else 0.0 for r in reflections]
            amps = [amp, *(amp * r.rel_amplitude * np.exp(1j * phase)
                           for r, phase in zip(reflections, phases))]
            if not all(map(cmath.isfinite, amps)):
                raise ConfigurationError(f"pose at timestamp_ns {ts}: a path amplitude "
                                         f"overflows the float range")
            for a, d, g in zip(aoa_k, delay_k, amps):
                PathComponent(aoa=a, delay_s=d, amplitude=g)  # its checks: a zero gain is refused
            out.append((pose, _frame(_sum_paths(amps, rx, one_tx, tof_k), amp, rng,
                                     scenario.snr_db, chanspec, scenario.source_mac,
                                     k & 0xFFFF, ts, bias, scenario.per_packet_phase)))
    return out


def _beacon_rssi(aps: list[ApSpec], positions: np.ndarray, exponent: float) -> np.ndarray:
    """RSSI of every AP's beacon at every position: (n_positions, n_aps) dBm.

    Each distance is sqrt(d . d) with the dot product as a stacked
    (1 x 2) @ (2 x 1) matmul, which numpy hands to the same BLAS dot as
    np.linalg.norm of one row, so each entry equals that one-row form bit
    for bit, whatever the number of positions.  np.hypot and norm over an
    axis rounded 15% and 9% of 20 000 random distances differently, and
    the walkthrough log prints RSSI to 0.01 dB.
    """
    locations = np.array([ap.location for ap in aps], dtype=np.float64).reshape(-1, 2)
    powers = np.array([ap.tx_power_dbm for ap in aps], dtype=np.float64)
    d = np.asarray(positions, dtype=np.float64)[:, None, :] - locations[None, :, :]
    dist = np.sqrt(d[..., None, :] @ d[..., :, None])[..., 0, 0]
    return rssi_at(powers, np.maximum(dist, 1e-6), exponent)


def _ray_sum(paths, geom, chanspec, tx_geom) -> np.ndarray:
    """The noiseless ray sum (n_rx, n_tx, n_sub) of an explicit path list."""
    lam = wavelength(chanspec)
    rx = steering_vector(np.array([p.aoa for p in paths]), geom, lam)
    tx = (np.ones((len(paths), 1)) if tx_geom is None
          else steering_vector(np.array([p.aod for p in paths]), tx_geom, lam))
    return _sum_paths([p.amplitude for p in paths], rx, tx,
                      _tof(chanspec, np.array([p.delay_s for p in paths])))


def _tof(chanspec: ChannelSpec, delays: np.ndarray) -> np.ndarray:
    """exp(-j 2 pi f delay) at every subcarrier f of each delay: (*delays.shape, n_sub)."""
    return np.exp(-2j * np.pi * subcarrier_frequencies(chanspec) * delays[..., None])


def _sum_paths(amplitudes, rx, tx, tof) -> np.ndarray:
    """Sum amplitudes[p] * rx[p]_i * tx[p]_t * tof[p]_j over paths p, in order."""
    csi = np.zeros((rx.shape[1], tx.shape[1], tof.shape[1]), dtype=np.complex128)
    for p, amplitude in enumerate(amplitudes):
        csi += amplitude * rx[p, :, None, None] * tx[p, None, :, None] * tof[p, None, None, :]
    return csi


def _frame(signal, direct_amp, rng, snr_db, chanspec, source_mac, seq, timestamp_ns,
           bias=None, per_packet_phase=False) -> CsiFrame:
    """Finish a noiseless ray sum: its RSSI, then the bias, a drawn common
    phase, the noise and the complex64 CsiFrame.  Call it under
    np.errstate(over="ignore", invalid="ignore"): a frame an overflow left
    non-finite is refused, naming its timestamp."""
    rssi = _rssi_of(signal)
    if bias is not None:
        signal = signal * bias
    if per_packet_phase:
        signal = signal * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    if snr_db is not None and np.isfinite(snr_db):
        signal = signal + _noise_like(signal, direct_amp, snr_db, rng)
    csi = signal.astype(np.complex64)
    try:
        return CsiFrame(csi=csi, rssi_dbm=float(rssi), source_mac=source_mac, seq=seq,
                        chanspec=chanspec, timestamp_ns=timestamp_ns)
    except FrameValidationError:
        if np.isfinite(csi.view(np.float32)).all():
            raise
        raise ConfigurationError(f"frame at timestamp_ns {timestamp_ns}: csi overflows "
                                 f"complex64") from None


def _rssi_of(signal) -> float:
    # mean element power referenced to REFERENCE_RSSI_DBM, floored 90 dB
    # below the reference so degenerate all-zero frames stay encodable
    power = max(float(np.mean(np.abs(signal) ** 2)), 1e-9)
    return REFERENCE_RSSI_DBM + 10.0 * np.log10(power)


def _check_range(name: str, value: float, bounds: tuple[float, float]) -> None:
    """Refuse a value outside [low, high]; NaN compares false, so it is refused too."""
    low, high = bounds
    if not low <= value <= high:
        raise ConfigurationError(f"{name} must lie in [{low:g}, {high:g}], got {value:g}")


def _check_location(name: str, location: np.ndarray) -> None:
    """Refuse a location that is not finite or lies beyond MAX_COORDINATE_M on an axis."""
    if not np.all(np.abs(location) <= MAX_COORDINATE_M):  # NaN compares false
        raise ConfigurationError(f"{name} must be finite and within {MAX_COORDINATE_M:g} m "
                                 f"of the origin on each axis, got {location.tolist()}")


def _check_snr(snr_db: float | None) -> None:
    """Refuse an SNR that is not None, +inf (both noiseless) or within SNR_DB_RANGE."""
    low, high = SNR_DB_RANGE
    if snr_db is not None and snr_db != np.inf and not low <= snr_db <= high:
        raise ConfigurationError(
            f"snr_db must be None, +inf or lie in [{low:g}, {high:g}] dB, got {snr_db:g}")


def _noise_like(signal, direct_amp, snr_db, rng) -> np.ndarray:
    # squared as a numpy float, with the same C pow: an overflow gives inf,
    # which _frame refuses, where a Python float raises OverflowError
    sigma2 = (np.float64(direct_amp) ** 2) * 10.0 ** (-snr_db / 10.0)
    scale = np.sqrt(sigma2 / 2.0)
    return scale * (rng.standard_normal(signal.shape) + 1j * rng.standard_normal(signal.shape))
