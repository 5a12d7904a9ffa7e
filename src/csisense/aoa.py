"""Bearing estimation from calibrated CSI frames.

Estimators:

* `bartlett_profile` -- bearing x relative-distance likelihood grid; the
  cheap real-time option and the source of the profile visualizations.
* `music_spectrum` -- subspace pseudospectrum over bearing only, from the
  antenna covariance averaged across subcarriers and frames.
* `spotfi_estimate` -- joint (bearing, delay) via 2-D MUSIC on spatially
  smoothed antenna/subcarrier sub-arrays (uniform linear arrays only).

All estimators are invariant to a global unit-phase factor on the input.
Only MUSIC, which estimates bearing alone, is also blind to a
per-subcarrier phase common to all antennas -- the part of the
calibration the pipeline cannot observe.  Bartlett's range axis and
SpotFi's subcarrier smoothing are not: both need a clean phase across
subcarriers to separate coherent paths.

`triangulate` turns bearings taken from known sensor poses into a
least-squares position fix for the localization case studies.

Grid kernels that depend only on the geometry, the channel and the
grids -- the bearing steering matrices, Bartlett's subcarrier x distance
range phasors and SpotFi's sub-array delay steering -- are built once per
(geometry, channel, grid) by small private caches and handed out
read-only, so a stream of frames pays for them once.  Every contraction
runs in the order that keeps the antenna axis (the smallest) innermost:
Bartlett multiplies the range phasors into the n_rx x n_sub CSI before
steering over bearings, and SpotFi projects the signal subspace on the
antenna steering before the delay steering.

SpotFi needs only the n_sources leading eigenvectors of its smoothed
covariance (244 x 244 at 80 MHz).  It takes them from the numpy-only
eigensolver in `core`, which the calibration shares: a block Krylov
solve from products with the snapshot matrix, which owns its dense
fallback for a subspace that does not separate from the rest of the
spectrum (more sources asked for than the frame has paths).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core import (
    SPEED_OF_LIGHT,
    SUBCARRIER_SPACING_HZ,
    ArrayGeometry,
    BearingEstimate,
    ChannelSpec,
    ConfigurationError,
    CsiFrame,
    CsiSenseError,
    DegenerateGeometryError,
    DimensionMismatchError,
    Pose2D,
    Profile2D,
    _leading_eigenpairs,
    subcarrier_indices,
    subcarrier_frequencies,
    wavelength,
    wrap_angle,
)

_ALGORITHMS = ("bartlett", "music", "spotfi")


class UnsupportedGeometryError(CsiSenseError):
    """The estimator requires a geometry the given array does not have."""


def default_theta_grid() -> np.ndarray:
    """1-degree bearing grid covering (-pi, pi], 360 points."""
    return np.radians(np.arange(-179.0, 181.0))


def default_dist_grid() -> np.ndarray:
    """Relative path-length grid: 0 to 30 m in 0.25 m steps."""
    return np.arange(0.0, 30.0 + 1e-9, 0.25)


@dataclass
class AoaConfig:
    """Processing parameters: grids, algorithm selection, averaging."""

    theta_grid: np.ndarray = field(default_factory=default_theta_grid)
    dist_grid: np.ndarray = field(default_factory=default_dist_grid)
    algorithm: str = "bartlett"
    smoothing: tuple[int, int] | None = None  # (n_ant_sub, n_sub_sub); None = auto
    window: int = 1  # frames per bearing (bartlett: profiles, music: covariance)
    n_sources: int = 1

    def __post_init__(self):
        self.theta_grid = np.asarray(self.theta_grid, dtype=np.float64)
        self.dist_grid = np.asarray(self.dist_grid, dtype=np.float64)
        if self.theta_grid.size == 0 or np.any(np.diff(self.theta_grid) <= 0):
            raise ConfigurationError("theta grid must be non-empty and increasing")
        if self.dist_grid.size == 0 or np.any(np.diff(self.dist_grid) <= 0):
            raise ConfigurationError("distance grid must be non-empty and increasing")
        if self.algorithm not in _ALGORITHMS:
            raise ConfigurationError(f"unknown algorithm {self.algorithm!r}")
        if self.window < 1:
            raise ConfigurationError("averaging window must be >= 1")
        if self.n_sources < 1:
            raise ConfigurationError("source count must be >= 1")
        if self.algorithm == "spotfi" and self.window > 1:
            # SpotFi estimates from one frame; a window it ignored would
            # mean something else than it does for bartlett and music.
            raise ConfigurationError("spotfi does not support an averaging window > 1")


class PathEstimate(NamedTuple):
    theta: float  # radians
    tau: float  # seconds
    power: float


def steering_matrix(theta_grid: np.ndarray, geom: ArrayGeometry, lambda_m: float) -> np.ndarray:
    """Stack of steering vectors, shape (n_theta, n_antennas)."""
    directions = np.stack([np.cos(theta_grid), np.sin(theta_grid)], axis=1)
    return np.exp(1j * (2.0 * np.pi / lambda_m) * (directions @ geom.positions.T))


def bartlett_profile(
    frame: CsiFrame,
    geom: ArrayGeometry,
    cfg: AoaConfig,
    tx_index: int = 0,
) -> Profile2D:
    """Bearing-range likelihood P(theta, d), normalized to max 1.

    P(theta, d) = |sum_i sum_j csi[i][j] conj(s_i(theta))
                   exp(+j 2 pi f_j d / c)|^2

    Peaks sit at each path's (bearing, c * delay); the range axis is
    relative path length with an arbitrary common offset.

    The n_sub x n_dist range phasors exp(+j 2 pi f_j d / c) come from a
    cache keyed on the channel and the distance grid.  The double sum is
    evaluated as conj(A) @ (csi @ R): the range transform first runs on
    the n_rx rows of the frame, so the bearing steering A contracts only
    n_rx terms per cell instead of n_sub.
    """
    _check_frame(frame, geom, tx_index)
    csi = frame.csi[:, tx_index, :].astype(np.complex128)
    a = _steering(cfg.theta_grid, geom.positions, wavelength(frame.chanspec))
    range_phasors = _range_phasors(frame.chanspec, _grid_key(cfg.dist_grid))
    power = np.abs(np.conj(a) @ (csi @ range_phasors)) ** 2
    peak = power.max()
    if peak > 0:
        power = power / peak
    return Profile2D(values=power, theta_grid=cfg.theta_grid, dist_grid=cfg.dist_grid)


def music_spectrum(
    frames: list[CsiFrame],
    geom: ArrayGeometry,
    cfg: AoaConfig,
    tx_index: int = 0,
) -> np.ndarray:
    """MUSIC pseudospectrum 1 / ||E_n^H s(theta)||^2 over the bearing grid.

    The spatial covariance averages per-subcarrier antenna vectors
    across subcarriers and frames; the noise subspace holds the
    n_antennas - n_sources smallest eigenvectors.
    """
    if not frames:
        raise ConfigurationError("need at least one frame")
    for frame in frames:
        _check_frame(frame, geom, tx_index)
    n_rx = geom.n_antennas
    if cfg.n_sources >= n_rx:
        raise ConfigurationError(
            f"{cfg.n_sources} sources leave no noise subspace for {n_rx} antennas"
        )
    snapshots = np.concatenate(
        [f.csi[:, tx_index, :].astype(np.complex128) for f in frames], axis=1
    )
    cov = snapshots @ snapshots.conj().T / snapshots.shape[1]
    cov = 0.5 * (cov + cov.conj().T)
    noise = np.linalg.eigh(cov)[1][:, : n_rx - cfg.n_sources]
    a = _steering(cfg.theta_grid, geom.positions, wavelength(frames[0].chanspec))
    denom = np.sum(np.abs(np.conj(a) @ noise) ** 2, axis=1)
    denom = np.maximum(denom, np.finfo(float).tiny)
    return 1.0 / denom


def spotfi_smoothing_dims(n_rx: int, n_cols: int, cfg: AoaConfig) -> tuple[int, int]:
    """Effective sub-array size: configured, or (2, n_cols // 2)."""
    dims = cfg.smoothing if cfg.smoothing is not None else (2, n_cols // 2)
    n_ant_sub, n_sub_sub = int(dims[0]), int(dims[1])
    if not 1 <= n_ant_sub <= n_rx or not 1 <= n_sub_sub <= n_cols:
        raise ConfigurationError(
            f"smoothing dims {dims} exceed array dimensions ({n_rx}, {n_cols})"
        )
    return n_ant_sub, n_sub_sub


def interpolate_subcarriers(csi_slice: np.ndarray, chanspec: ChannelSpec) -> np.ndarray:
    """Resample one (n_rx, n_sub) slice onto the full uniform index grid.

    Pilot and DC holes are filled by linear interpolation so that
    adjacent columns are exactly one subcarrier spacing apart -- the
    shift structure spatial smoothing relies on.
    """
    idx = subcarrier_indices(chanspec).astype(np.float64)
    full = np.arange(idx[0], idx[-1] + 1)
    out = np.empty((csi_slice.shape[0], full.size), dtype=np.complex128)
    for i, row in enumerate(csi_slice):
        out[i] = np.interp(full, idx, row.real) + 1j * np.interp(full, idx, row.imag)
    return out


def spotfi_estimate(
    frame: CsiFrame,
    geom: ArrayGeometry,
    cfg: AoaConfig,
    tx_index: int = 0,
) -> list[PathEstimate]:
    """Joint (bearing, delay) estimates via smoothed 2-D MUSIC.

    Overlapping sub-arrays of n_ant_sub antennas x n_sub_sub subcarriers
    (stepped by one antenna / one subcarrier) decorrelate coherent
    multipath before the eigendecomposition; the pseudospectrum is
    evaluated over joint steering s_i(theta) * exp(-j 2 pi f_j tau) and
    up to n_sources local maxima are returned, strongest first.  Delays
    are relative (the grid is cfg.dist_grid / c).

    Requires a uniform linear array with at least two antennas.
    """
    _check_frame(frame, geom, tx_index)
    _require_ula(geom)
    pseudo = _spotfi_pseudospectrum(frame, geom, cfg, tx_index)
    tau_grid = cfg.dist_grid / SPEED_OF_LIGHT

    local_max = pseudo == _max_filter3(pseudo)
    peak_idx = np.argwhere(local_max)
    order = np.argsort(pseudo[local_max])[::-1]
    paths = []
    for k in order[: cfg.n_sources]:
        ti, di = peak_idx[k]
        paths.append(
            PathEstimate(
                theta=float(cfg.theta_grid[ti]),
                tau=float(tau_grid[di]),
                power=float(pseudo[ti, di]),
            )
        )
    return paths


def _max_filter3(values: np.ndarray) -> np.ndarray:
    """3 x 3 sliding maximum of a 2-D array, borders replicating the edge."""
    padded = np.pad(values, 1, mode="edge")
    rows = np.maximum(np.maximum(padded[:-2], padded[1:-1]), padded[2:])
    return np.maximum(np.maximum(rows[:, :-2], rows[:, 1:-1]), rows[:, 2:])


def _spotfi_pseudospectrum(
    frame: CsiFrame,
    geom: ArrayGeometry,
    cfg: AoaConfig,
    tx_index: int,
) -> np.ndarray:
    """Smoothed 2-D MUSIC pseudospectrum over (theta grid, dist grid).

    The signal subspace is the top n_sources eigenvectors of the smoothed
    covariance X X^H / n_windows, from `core._leading_eigenpairs`.
    """
    csi_full = interpolate_subcarriers(
        frame.csi[:, tx_index, :].astype(np.complex128), frame.chanspec
    )
    n_rx, n_cols = csi_full.shape
    n_ant_sub, n_sub_sub = spotfi_smoothing_dims(n_rx, n_cols, cfg)
    windows = np.lib.stride_tricks.sliding_window_view(csi_full, (n_ant_sub, n_sub_sub))
    snapshots = windows.reshape(-1, n_ant_sub * n_sub_sub).T  # (dim, n_windows)
    dim = n_ant_sub * n_sub_sub
    n_sources = cfg.n_sources
    if n_sources >= dim:
        raise ConfigurationError("source count leaves no noise subspace")
    signal = _leading_eigenpairs(snapshots, n_sources)[1]

    ant = _steering(cfg.theta_grid, geom.positions[:n_ant_sub], wavelength(frame.chanspec))
    sub = _delay_steering(n_sub_sub, _grid_key(cfg.dist_grid))
    # ||E_n^H v||^2 = dim - ||E_s^H v||^2 for unit-modulus-element v:
    # project onto the n_sources signal vectors instead of dim-K noise ones.
    # The joint steering v = s(theta) (x) sub(tau) is separable, so E_s^H v
    # is two matmuls: over antennas per source, then one over subcarriers
    # for every (source, theta) row.
    per_theta = np.conj(ant) @ signal.T.reshape(n_sources, n_ant_sub, n_sub_sub)
    projection = per_theta.reshape(-1, n_sub_sub) @ np.conj(sub)
    projection = projection.reshape(n_sources, cfg.theta_grid.size, -1)
    sig_power = np.sum(np.abs(projection) ** 2, axis=0)
    denom = np.maximum(dim - sig_power, 1e-9 * dim)
    return 1.0 / denom


def average_profiles(profiles: list[Profile2D], window: int) -> Profile2D:
    """Element-wise mean over the trailing `window` profiles, max-normalized.

    Incoherent (power-domain) averaging: stationary-path peaks reinforce
    while randomly phased reflections average toward their mean level.
    """
    if not profiles:
        raise ConfigurationError("no profiles to average")
    if window < 1:
        raise ConfigurationError("window must be >= 1")
    tail = profiles[-window:]
    first = tail[0]
    for p in tail[1:]:
        if not (np.array_equal(p.theta_grid, first.theta_grid)
                and np.array_equal(p.dist_grid, first.dist_grid)):
            raise DimensionMismatchError("profiles must share identical grids")
    mean = np.mean([p.values for p in tail], axis=0)
    peak = mean.max()
    if peak > 0:
        mean = mean / peak
    return Profile2D(values=mean, theta_grid=first.theta_grid, dist_grid=first.dist_grid)


class ProfileAverager:
    """Sliding-window incoherent averager for one consumer stream.

    Keeps a running sum of the profiles in the window: each push adds
    the new profile and subtracts the one leaving, so a push costs the
    same at any window length.  Holds per-source mutable state; confine
    each instance to a single stream of profiles.
    """

    def __init__(self, window: int):
        if window < 1:
            raise ConfigurationError("window must be >= 1")
        self.window = window
        self._buffer: deque[Profile2D] = deque(maxlen=window)
        self._sum: np.ndarray | None = None

    def push(self, profile: Profile2D) -> Profile2D:
        if not self._buffer:
            self._sum = np.array(profile.values, dtype=np.float64)
        else:
            oldest = self._buffer[0]
            if not (np.array_equal(profile.theta_grid, oldest.theta_grid)
                    and np.array_equal(profile.dist_grid, oldest.dist_grid)):
                raise DimensionMismatchError("profiles must share identical grids")
            if len(self._buffer) == self.window:
                self._sum -= oldest.values
            self._sum += profile.values
            # Rounding in the subtraction can leave a cell a few ulps
            # below zero where the true sum is ~0; powers are never negative.
            np.maximum(self._sum, 0.0, out=self._sum)
        self._buffer.append(profile)
        peak = self._sum.max()
        values = self._sum / peak if peak > 0 else self._sum.copy()
        return Profile2D(values=values, theta_grid=profile.theta_grid,
                         dist_grid=profile.dist_grid)


def estimate_bearing(
    profile_or_spectrum,
    rssi_dbm: float,
    cfg: AoaConfig,
    source_mac: bytes = b"\x00" * 6,
    timestamp_ns: int = 0,
) -> BearingEstimate:
    """Pick the bearing at the profile/spectrum argmax.

    For a 2-D profile the per-bearing maximum over distance is taken
    first.  Ties break toward the smallest bearing index, so the result
    is deterministic; any monotone rescaling of the input leaves the
    returned bearing unchanged.  `rssi_dbm` is only carried into the
    estimate: the RSSI floor is applied at ingest (`codec.filter_frames`).
    """
    if isinstance(profile_or_spectrum, Profile2D):
        curve = profile_or_spectrum.values.max(axis=1)
        grid = profile_or_spectrum.theta_grid
    else:
        curve = np.asarray(profile_or_spectrum, dtype=np.float64)
        grid = cfg.theta_grid
        if curve.shape != grid.shape:
            raise DimensionMismatchError(
                f"spectrum length {curve.shape} does not match theta grid {grid.shape}"
            )
    k = int(np.argmax(curve))
    return BearingEstimate(
        theta=float(grid[k]),
        strength=float(curve[k]),
        rssi_dbm=rssi_dbm,
        source_mac=source_mac,
        timestamp_ns=timestamp_ns,
    )


def transpose_for_aod(frame: CsiFrame, rx_index: int = 0) -> CsiFrame:
    """View one rx antenna's measurements as an array over tx antennas.

    Lets every estimator run on the transmit side (angle of departure)
    when the transmitter has multiple antennas; the caller must supply
    the transmitter's array geometry to the estimator.
    """
    if not 0 <= rx_index < frame.n_rx:
        raise DimensionMismatchError(f"rx index {rx_index} out of range")
    swapped = frame.csi[rx_index][:, None, :]
    return CsiFrame(
        csi=swapped,
        rssi_dbm=frame.rssi_dbm,
        source_mac=frame.source_mac,
        seq=frame.seq,
        chanspec=frame.chanspec,
        timestamp_ns=frame.timestamp_ns,
    )


def triangulate(
    observations: list[tuple[Pose2D, float]],
) -> tuple[np.ndarray, float]:
    """Least-squares point fix from (sensor pose, local bearing) pairs.

    Each bearing becomes a world-frame ray from the sensor position; the
    returned point minimizes the sum of squared perpendicular distances
    to all rays.  Also returns the RMS perpendicular residual.

    Raises DegenerateGeometryError for fewer than two rays or an
    all-parallel bundle.
    """
    if len(observations) < 2:
        raise DegenerateGeometryError("need at least two bearing observations")
    normals = np.empty((len(observations), 2))
    offsets = np.empty(len(observations))
    for k, (pose, bearing) in enumerate(observations):
        # Invert the bearing convention: the world azimuth of the
        # sensor->target direction.
        azimuth = wrap_angle(np.pi / 2.0 - bearing + pose.theta + np.pi)
        normals[k] = (-np.sin(azimuth), np.cos(azimuth))
        offsets[k] = normals[k] @ (pose.x, pose.y)
    gram = normals.T @ normals
    eigvals = np.linalg.eigvalsh(gram)
    if eigvals[0] <= 1e-10 * max(eigvals[1], 1.0):
        raise DegenerateGeometryError("bearing rays are parallel; no intersection")
    point = np.linalg.solve(gram, normals.T @ offsets)
    residual = float(np.sqrt(np.mean((normals @ point - offsets) ** 2)))
    return point, residual


def write_bearings_csv(path, estimates: list[BearingEstimate]) -> None:
    """Bearing output file: timestamp_ns, source_mac, theta_deg, strength, rssi_dbm."""
    from .codec import format_mac

    with open(path, "w") as fh:
        fh.write("timestamp_ns,source_mac,theta_deg,strength,rssi_dbm\n")
        for est in estimates:
            fh.write(
                f"{est.timestamp_ns},{format_mac(est.source_mac)},"
                f"{np.degrees(est.theta):.4f},{est.strength:.6g},{est.rssi_dbm:.2f}\n"
            )


def write_profile_pgm(path, profile: Profile2D, metadata: dict | None = None) -> None:
    """8-bit binary PGM (rows = bearings, columns = distances) + sidecar.

    Values are scaled linearly so the maximum maps to 255.  The sidecar
    text file at `<path>.txt` carries both grids in degrees/meters plus
    any extra metadata, enough to reconstruct the argmax cell exactly
    whenever the peak is unique by more than 1/255 of the maximum.
    """
    values = profile.values
    peak = values.max()
    scaled = np.rint(values / peak * 255.0).astype(np.uint8) if peak > 0 else \
        np.zeros_like(values, dtype=np.uint8)
    n_theta, n_dist = scaled.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{n_dist} {n_theta}\n255\n".encode())
        fh.write(scaled.tobytes())
    lines = [
        "# csisense profile sidecar",
        f"rows = {n_theta}",
        f"cols = {n_dist}",
        "theta_deg = " + ",".join(f"{np.degrees(v):.6f}" for v in profile.theta_grid),
        "dist_m = " + ",".join(f"{v:.6f}" for v in profile.dist_grid),
        f"scale_max = {peak:.10g}",
    ]
    for key, value in (metadata or {}).items():
        lines.append(f"{key} = {value}")
    with open(str(path) + ".txt", "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_profile_pgm(path) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """Read a profile image and its sidecar back: (uint8 image, grids, meta)."""
    with open(path, "rb") as fh:
        if fh.readline().strip() != b"P5":
            raise ConfigurationError("not a binary PGM file")
        n_dist, n_theta = (int(v) for v in fh.readline().split())
        maxval = int(fh.readline())
        if maxval != 255:
            raise ConfigurationError("expected 8-bit PGM")
        image = np.frombuffer(fh.read(n_theta * n_dist), dtype=np.uint8)
        image = image.reshape(n_theta, n_dist)
    meta: dict[str, str] = {}
    with open(str(path) + ".txt") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            meta[key.strip()] = value.strip()
    theta = np.radians([float(v) for v in meta.pop("theta_deg").split(",")])
    dist = np.array([float(v) for v in meta.pop("dist_m").split(",")])
    return image, theta, dist, meta


# Kernels are keyed on the float64 bytes of their grids and antenna
# positions (arrays are unhashable) and returned read-only, since every
# caller shares the cached array.  A few entries cover every (geometry,
# channel, grid) a process alternates between.
def _grid_key(grid: np.ndarray) -> bytes:
    return np.asarray(grid, dtype=np.float64).tobytes()


def _steering(theta_grid: np.ndarray, positions: np.ndarray, lambda_m: float) -> np.ndarray:
    return _steering_kernel(_grid_key(positions), float(lambda_m), _grid_key(theta_grid))


@lru_cache(maxsize=8)
def _steering_kernel(positions_bytes: bytes, lambda_m: float, theta_bytes: bytes) -> np.ndarray:
    """Bearing steering `steering_matrix`, shape (n_theta, n_antennas)."""
    positions = np.frombuffer(positions_bytes, dtype=np.float64).reshape(-1, 2)
    kernel = steering_matrix(np.frombuffer(theta_bytes, dtype=np.float64),
                             ArrayGeometry(positions), lambda_m)
    kernel.flags.writeable = False
    return kernel


@lru_cache(maxsize=8)
def _range_phasors(chanspec: ChannelSpec, dist_bytes: bytes) -> np.ndarray:
    """Bartlett range phasors exp(+j 2 pi f_j d / c), shape (n_sub, n_dist)."""
    dist_grid = np.frombuffer(dist_bytes, dtype=np.float64)
    freqs = subcarrier_frequencies(chanspec)
    kernel = np.exp(2j * np.pi * np.outer(freqs, dist_grid) / SPEED_OF_LIGHT)
    kernel.flags.writeable = False
    return kernel


@lru_cache(maxsize=8)
def _delay_steering(n_sub_sub: int, dist_bytes: bytes) -> np.ndarray:
    """SpotFi sub-array delay steering exp(-j 2 pi k df tau), shape (n_sub_sub, n_dist)."""
    tau_grid = np.frombuffer(dist_bytes, dtype=np.float64) / SPEED_OF_LIGHT
    kernel = np.exp(-2j * np.pi * SUBCARRIER_SPACING_HZ
                    * np.outer(np.arange(n_sub_sub), tau_grid))
    kernel.flags.writeable = False
    return kernel


def _check_frame(frame: CsiFrame, geom: ArrayGeometry, tx_index: int) -> None:
    if frame.n_rx != geom.n_antennas:
        raise DimensionMismatchError(
            f"frame has {frame.n_rx} antennas, geometry has {geom.n_antennas}"
        )
    if not 0 <= tx_index < frame.n_tx:
        raise DimensionMismatchError(f"tx index {tx_index} out of range")


def _require_ula(geom: ArrayGeometry) -> None:
    if geom.n_antennas < 2:
        raise UnsupportedGeometryError("spatial smoothing needs at least two antennas")
    steps = np.diff(geom.positions, axis=0)
    if not np.allclose(steps, steps[0], atol=1e-9):
        raise UnsupportedGeometryError(
            "spatial smoothing requires a uniform linear array"
        )
    if np.allclose(steps[0], 0.0):
        raise UnsupportedGeometryError("array spacing must be non-zero")
