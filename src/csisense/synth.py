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
model the calibration pipeline assumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    SPEED_OF_LIGHT,
    ArrayGeometry,
    CalibrationMatrix,
    ChannelSpec,
    ConfigurationError,
    CsiFrame,
    Pose2D,
    _ground_truth_bearings,
    _pose_arrays,
    _steering_vectors,
    steering_vector,
    subcarrier_frequencies,
    wavelength,
    wrap_angle,
)

# A unit-amplitude single path reports this RSSI; every other level is
# relative to it.
REFERENCE_RSSI_DBM = -30.0

DEFAULT_PATH_LOSS_EXPONENT = 2.2

DEFAULT_MAC = bytes.fromhex("020000000001")
# The SNRs, dB, that noise may take: wide of any real link, and narrow
# enough that the noise stays finite in a frame's complex64 csi.
SNR_DB_RANGE = (-100.0, 300.0)


@dataclass(frozen=True)
class PathComponent:
    """One propagation path: arrival/departure angles, absolute delay, gain."""

    aoa: float  # radians, arrival angle at the receiver
    aod: float = 0.0  # radians, departure angle (used when n_tx > 1)
    delay_s: float = 0.0  # absolute time of flight, seconds
    amplitude: complex = 1.0 + 0.0j

    def __post_init__(self):
        if self.delay_s < 0:
            raise ConfigurationError("path delay must be >= 0")
        if abs(self.amplitude) == 0:
            raise ConfigurationError("path amplitude must be non-zero")


@dataclass(frozen=True)
class Reflection:
    """Scenario-level reflected path, relative to the direct path."""

    aoa_offset: float  # radians added to the direct path's arrival angle
    excess_delay_s: float  # seconds added to the direct path's delay
    rel_amplitude: float  # linear gain relative to the direct path
    random_phase: bool = True  # new uniform phase each packet


@dataclass(frozen=True, eq=False)
class ApSpec:
    """One access point in the simulated environment."""

    location: np.ndarray  # (2,) meters
    chanspec: ChannelSpec
    tx_power_dbm: float
    mac: bytes = DEFAULT_MAC

    def __post_init__(self):
        object.__setattr__(self, "location", np.asarray(self.location, dtype=np.float64))


@dataclass(eq=False)
class SimScenario:
    """Everything needed to synthesize a dataset or a scanner walkthrough."""

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
        stamps = [ts for ts, _ in self.trajectory]
        if any(b <= a for a, b in zip(stamps, stamps[1:])):
            raise ConfigurationError("trajectory timestamps must be strictly increasing")
        _check_snr(self.snr_db)


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
    Deterministic for a fixed seed.
    """
    if not paths:
        raise ConfigurationError("need at least one path")
    _check_snr(snr_db)
    signal = _ray_sum(paths, geom, chanspec, tx_geom)
    rssi = _rssi_of(signal)
    if snr_db is not None and np.isfinite(snr_db):
        rng = np.random.default_rng(rng_seed)  # a Generator passes through unchanged
        signal = signal + _noise_like(signal, abs(paths[0].amplitude), snr_db, rng)
    return CsiFrame(
        csi=signal.astype(np.complex64),
        rssi_dbm=float(rssi),
        source_mac=source_mac,
        seq=seq,
        chanspec=chanspec,
        timestamp_ns=timestamp_ns,
    )


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
    parts).  The direct path's distance, bearing, amplitude, steering
    vector and time-of-flight phasors draw nothing, so they are computed
    for all poses in one array pass first; batching them must never move
    a draw.
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

    freqs = subcarrier_frequencies(chanspec)
    lam = wavelength(chanspec)
    tx = scenario.tx_location
    xy, heading = _pose_arrays(pose for _, pose in scenario.trajectory)
    theta = _ground_truth_bearings(xy, heading, tx)  # raises if a pose is on tx
    dist = np.hypot(xy[:, 0] - tx[0], xy[:, 1] - tx[1])
    delay = dist / SPEED_OF_LIGHT
    level = (rssi_at(scenario.tx_power_dbm, dist, scenario.path_loss_exponent)
             - REFERENCE_RSSI_DBM) / 20.0
    steering = _steering_vectors(theta, geom, lam)
    tof = np.exp(-2j * np.pi * freqs * delay[:, None])

    out = []
    for k, (ts, pose) in enumerate(scenario.trajectory):
        # Built, as each reflection is, so a zero amplitude is refused; its
        # power is scalar, as np.power over an array rounds some entries
        # differently.
        direct = PathComponent(aoa=theta[k], delay_s=delay[k], amplitude=10.0 ** level[k])
        amp = direct.amplitude
        signal = _add_path(np.zeros((geom.n_antennas, 1, freqs.size), dtype=np.complex128),
                           amp, steering[k], _NO_TX_ARRAY, tof[k])
        for refl in scenario.reflections:
            phase = rng.uniform(0.0, 2.0 * np.pi) if refl.random_phase else 0.0
            path = PathComponent(
                aoa=wrap_angle(theta[k] + refl.aoa_offset),
                delay_s=delay[k] + refl.excess_delay_s,
                amplitude=amp * refl.rel_amplitude * np.exp(1j * phase),
            )
            _add_path(signal, path.amplitude, steering_vector(path.aoa, geom, lam),
                      _NO_TX_ARRAY, np.exp(-2j * np.pi * freqs * path.delay_s))
        rssi = _rssi_of(signal)
        if bias is not None:
            signal = signal * bias
        if scenario.per_packet_phase:
            signal = signal * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        if scenario.snr_db is not None and np.isfinite(scenario.snr_db):
            signal = signal + _noise_like(signal, amp, scenario.snr_db, rng)
        frame = CsiFrame(
            csi=signal.astype(np.complex64),
            rssi_dbm=float(rssi),
            source_mac=scenario.source_mac,
            seq=k & 0xFFFF,
            chanspec=chanspec,
            timestamp_ns=ts,
        )
        out.append((pose, frame))
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


def _beacons_by_channel(aps: list[ApSpec], rssi) -> dict[ChannelSpec, list[tuple[bytes, float]]]:
    """One position's beacons, {chanspec: [(mac, rssi)]}, APs in scenario order."""
    obs: dict[ChannelSpec, list[tuple[bytes, float]]] = {}
    for ap, level in zip(aps, rssi):
        obs.setdefault(ap.chanspec, []).append((ap.mac, level))
    return obs


def _ray_sum(paths, geom, chanspec, tx_geom) -> np.ndarray:
    freqs = subcarrier_frequencies(chanspec)
    lam = wavelength(chanspec)
    n_tx = tx_geom.n_antennas if tx_geom is not None else 1
    csi = np.zeros((geom.n_antennas, n_tx, freqs.size), dtype=np.complex128)
    for p in paths:
        tx = steering_vector(p.aod, tx_geom, lam) if tx_geom is not None else _NO_TX_ARRAY
        _add_path(csi, p.amplitude, steering_vector(p.aoa, geom, lam), tx,
                  np.exp(-2j * np.pi * freqs * p.delay_s))
    return csi


# The transmit steering of a single-antenna transmitter.
_NO_TX_ARRAY = np.ones(1)


def _add_path(csi, amplitude, rx, tx, tof) -> np.ndarray:
    """Add one path's term amplitude * rx_i * tx_t * tof_j to csi in place."""
    csi += amplitude * rx[:, None, None] * tx[None, :, None] * tof[None, None, :]
    return csi


def _rssi_of(signal) -> float:
    # mean element power referenced to REFERENCE_RSSI_DBM, floored 90 dB
    # below the reference so degenerate all-zero frames stay encodable
    power = max(float(np.mean(np.abs(signal) ** 2)), 1e-9)
    return REFERENCE_RSSI_DBM + 10.0 * np.log10(power)


def _check_snr(snr_db: float | None) -> None:
    """Refuse an SNR that is not None, +inf (both noiseless) or within SNR_DB_RANGE."""
    low, high = SNR_DB_RANGE
    if snr_db is not None and snr_db != np.inf and not low <= snr_db <= high:
        raise ConfigurationError(
            f"snr_db must be None, +inf or lie in [{low:g}, {high:g}] dB, got {snr_db:g}")


def _noise_like(signal, direct_amp, snr_db, rng) -> np.ndarray:
    sigma2 = (direct_amp ** 2) * 10.0 ** (-snr_db / 10.0)
    scale = np.sqrt(sigma2 / 2.0)
    return scale * (rng.standard_normal(signal.shape) + 1j * rng.standard_normal(signal.shape))
