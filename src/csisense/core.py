"""Domain types and channel math shared by every other module.

Conventions used throughout the package:

* Angles are radians internally, wrapped to (-pi, pi]; files and the CLI
  speak degrees.
* CSI tensors are indexed [rx_antenna][tx_antenna][subcarrier] and stored
  as complex64 (the wire format carries float32 pairs).
* Antenna 0 is the phase reference: its position is the origin, so its
  steering-vector element is exactly 1.
* A bearing of theta means the transmitter direction whose steering
  phases are (2*pi/lambda) * [cos(theta), sin(theta)] . a_i.  The
  ground-truth bearing formula below is applied literally; whether 0 rad
  is broadside or endfire depends on where the user mounts the array,
  and the whole pipeline is self-consistent either way.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

SPEED_OF_LIGHT = 299792458.0  # m/s
SUBCARRIER_SPACING_HZ = 312.5e3

# Usable (data) subcarrier index sets per bandwidth: data tones only,
# pilots excluded.  Counts: 52 / 108 / 234.
_PILOTS = {
    20: (7, 21),
    40: (11, 25, 53),
    80: (11, 39, 75, 103),
}
_INDEX_SPAN = {20: (1, 28), 40: (2, 58), 80: (2, 122)}


class CsiSenseError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(CsiSenseError):
    """Invalid channel/bandwidth/parameter configuration."""


class DegenerateGeometryError(CsiSenseError):
    """Geometry does not determine a result (coincident points, parallel rays)."""


class FrameValidationError(CsiSenseError):
    """A CsiFrame violates its invariants."""


class DimensionMismatchError(CsiSenseError):
    """Operands have incompatible shapes or channel configurations."""


def wrap_angle(theta):
    """Wrap angles to the interval (-pi, pi].  Works on scalars and arrays."""
    wrapped = np.mod(theta + np.pi, 2.0 * np.pi) - np.pi
    wrapped = np.where(wrapped <= -np.pi, wrapped + 2.0 * np.pi, wrapped)
    if np.ndim(theta) == 0:
        return float(wrapped)
    return wrapped


@dataclass(frozen=True)
class ChannelSpec:
    """IEEE 5 GHz channel descriptor: (channel number, bandwidth)."""

    channel_number: int
    bandwidth_mhz: int

    def __post_init__(self):
        if self.bandwidth_mhz not in (20, 40, 80):
            raise ConfigurationError(
                f"unsupported bandwidth {self.bandwidth_mhz} MHz (expected 20, 40 or 80)"
            )
        if not 1 <= int(self.channel_number) <= 200:
            raise ConfigurationError(f"channel number {self.channel_number} out of range")

    @property
    def center_freq_hz(self) -> float:
        return 5000e6 + 5e6 * self.channel_number

    @property
    def n_sub(self) -> int:
        return usable_subcarrier_count(self.bandwidth_mhz)


@lru_cache(maxsize=None)
def _index_set(bandwidth_mhz: int) -> tuple[int, ...]:
    lo, hi = _INDEX_SPAN[bandwidth_mhz]
    pilots = set(_PILOTS[bandwidth_mhz]) | {-p for p in _PILOTS[bandwidth_mhz]}
    idx = [k for k in range(-hi, hi + 1) if lo <= abs(k) <= hi and k not in pilots]
    return tuple(idx)


def usable_subcarrier_count(bandwidth_mhz: int) -> int:
    if bandwidth_mhz not in _INDEX_SPAN:
        raise ConfigurationError(f"unsupported bandwidth {bandwidth_mhz} MHz")
    return len(_index_set(bandwidth_mhz))


def subcarrier_indices(chanspec: ChannelSpec) -> np.ndarray:
    """Signed subcarrier indices (relative to DC) of the usable data tones."""
    return np.array(_index_set(chanspec.bandwidth_mhz), dtype=np.int64)


def subcarrier_frequencies(chanspec: ChannelSpec) -> np.ndarray:
    """Absolute frequency in Hz of each usable subcarrier, ascending."""
    return chanspec.center_freq_hz + SUBCARRIER_SPACING_HZ * subcarrier_indices(chanspec)


def wavelength(chanspec: ChannelSpec) -> float:
    """Wavelength of the channel's center frequency, meters."""
    return SPEED_OF_LIGHT / chanspec.center_freq_hz


@dataclass(frozen=True)
class ArrayGeometry:
    """Relative 2-D antenna positions of the receiver array, meters.

    Antenna 0 is the reference and must sit at the origin.
    """

    positions: np.ndarray  # (n_rx, 2) float64

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 1:
            raise ConfigurationError("antenna positions must be an (n, 2) array")
        if not np.allclose(pos[0], 0.0):
            raise ConfigurationError("antenna 0 must be at the origin")
        if len({(round(x, 12), round(y, 12)) for x, y in pos}) != len(pos):
            raise ConfigurationError("antenna positions must be distinct")
        object.__setattr__(self, "positions", pos)

    def __len__(self) -> int:
        return self.positions.shape[0]

    @property
    def n_antennas(self) -> int:
        return self.positions.shape[0]

    @staticmethod
    def uniform_linear(n: int, spacing_m: float, axis: str = "y") -> "ArrayGeometry":
        """Uniform linear array along +x or +y, antenna 0 at the origin."""
        pos = np.zeros((n, 2))
        col = {"x": 0, "y": 1}[axis]
        pos[:, col] = spacing_m * np.arange(n)
        return ArrayGeometry(pos)

    @staticmethod
    def square(spacing_m: float) -> "ArrayGeometry":
        """Four antennas on the corners of an axis-aligned square."""
        return ArrayGeometry(
            np.array([[0.0, 0.0], [spacing_m, 0.0], [spacing_m, spacing_m], [0.0, spacing_m]])
        )


@dataclass(frozen=True)
class Pose2D:
    """SE(2) pose: position in meters, heading wrapped to (-pi, pi]."""

    x: float
    y: float
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", wrap_angle(float(self.theta)))

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y])


@dataclass
class CsiFrame:
    """One packet's complex channel matrix plus radio metadata.

    csi is complex64 with shape (n_rx, n_tx, n_sub); n_sub must equal the
    usable subcarrier count of the chanspec.
    """

    csi: np.ndarray
    rssi_dbm: float
    source_mac: bytes
    seq: int
    chanspec: ChannelSpec
    timestamp_ns: int

    def __post_init__(self):
        self.csi = np.ascontiguousarray(self.csi, dtype=np.complex64)
        if self.csi.ndim != 3:
            raise FrameValidationError(f"csi must be 3-D, got shape {self.csi.shape}")
        n_rx, n_tx, n_sub = self.csi.shape
        if not (1 <= n_rx <= 4 and 1 <= n_tx <= 4):
            raise FrameValidationError(f"antenna counts out of range: rx={n_rx} tx={n_tx}")
        expected = self.chanspec.n_sub
        if n_sub != expected:
            raise FrameValidationError(
                f"n_sub={n_sub} does not match chanspec "
                f"({self.chanspec.bandwidth_mhz} MHz expects {expected})"
            )
        if not np.all(np.isfinite(self.csi.view(np.float32))):
            raise FrameValidationError("csi entries must be finite")
        if len(self.source_mac) != 6:
            raise FrameValidationError("source_mac must be 6 bytes")

    @property
    def n_rx(self) -> int:
        return self.csi.shape[0]

    @property
    def n_tx(self) -> int:
        return self.csi.shape[1]

    @property
    def n_sub(self) -> int:
        return self.csi.shape[2]

    def __eq__(self, other) -> bool:
        if not isinstance(other, CsiFrame):
            return NotImplemented
        return (
            self.csi.shape == other.csi.shape
            and np.array_equal(self.csi, other.csi)
            and self.rssi_dbm == other.rssi_dbm
            and self.source_mac == other.source_mac
            and self.seq == other.seq
            and self.chanspec == other.chanspec
            and self.timestamp_ns == other.timestamp_ns
        )


@dataclass(frozen=True)
class CalibrationMatrix:
    """Per-antenna, per-subcarrier phase corrections, radians.

    The complex form exp(1j * phase) has unit modulus by construction.
    The canonical form produced by the calibration pipeline has row 0
    identically zero (antenna 0 is the phase reference); rows then hold
    inter-antenna relative corrections.
    """

    phase: np.ndarray  # (n_rx, n_sub) float64, radians
    chanspec: ChannelSpec

    def __post_init__(self):
        phase = np.asarray(self.phase, dtype=np.float64)
        if phase.ndim != 2:
            raise ConfigurationError("calibration phase must be 2-D (n_rx, n_sub)")
        if phase.shape[1] != self.chanspec.n_sub:
            raise ConfigurationError(
                f"calibration has {phase.shape[1]} subcarriers, "
                f"chanspec expects {self.chanspec.n_sub}"
            )
        if not np.all(np.isfinite(phase)):
            raise ConfigurationError("calibration phase must be finite")
        object.__setattr__(self, "phase", phase)

    @property
    def n_rx(self) -> int:
        return self.phase.shape[0]

    @property
    def n_sub(self) -> int:
        return self.phase.shape[1]


@dataclass(frozen=True)
class BearingEstimate:
    """One bearing measurement in the sensor's local frame."""

    theta: float  # radians, (-pi, pi]
    strength: float  # peak profile/spectrum value, >= 0
    rssi_dbm: float
    source_mac: bytes
    timestamp_ns: int

    def __post_init__(self):
        object.__setattr__(self, "theta", wrap_angle(float(self.theta)))
        if self.strength < 0:
            raise ConfigurationError("bearing strength must be >= 0")


@dataclass(frozen=True)
class Profile2D:
    """Bearing x relative-distance likelihood grid."""

    values: np.ndarray  # (n_theta, n_dist) float64, >= 0
    theta_grid: np.ndarray  # radians, strictly increasing
    dist_grid: np.ndarray  # meters (relative path length), strictly increasing

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        tg = np.asarray(self.theta_grid, dtype=np.float64)
        dg = np.asarray(self.dist_grid, dtype=np.float64)
        if values.shape != (tg.size, dg.size):
            raise DimensionMismatchError(
                f"profile shape {values.shape} does not match grids ({tg.size}, {dg.size})"
            )
        if np.any(np.diff(tg) <= 0) or np.any(np.diff(dg) <= 0):
            raise ConfigurationError("profile grids must be strictly increasing")
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise ConfigurationError("profile values must be finite and non-negative")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "theta_grid", tg)
        object.__setattr__(self, "dist_grid", dg)

    def argmax_cell(self) -> tuple[int, int]:
        """Indices of the global maximum (first occurrence on ties)."""
        flat = int(np.argmax(self.values))
        return np.unravel_index(flat, self.values.shape)


def ground_truth_bearing(robot: Pose2D, tx) -> float:
    """Bearing of a transmitter at `tx` as seen from `robot`, radians.

    Evaluates pi/2 - (atan2(r_y - t_y, r_x - t_x) - r_theta) and wraps the
    result to (-pi, pi].  Adding delta to the robot heading adds delta to
    the bearing (mod 2*pi).
    """
    tx = np.asarray(tx, dtype=np.float64)
    dx = robot.x - tx[0]
    dy = robot.y - tx[1]
    if dx == 0.0 and dy == 0.0:
        raise DegenerateGeometryError("robot position coincides with transmitter")
    return wrap_angle(np.pi / 2.0 - (np.arctan2(dy, dx) - robot.theta))


def steering_vector(theta: float, geom: ArrayGeometry, lambda_m: float) -> np.ndarray:
    """Plane-wave steering vector exp(j*(2*pi/lambda)*[cos t, sin t].a_i).

    Element 0 is exactly 1 (antenna 0 sits at the origin).
    """
    if lambda_m <= 0:
        raise ConfigurationError("wavelength must be positive")
    direction = np.array([np.cos(theta), np.sin(theta)])
    phases = (2.0 * np.pi / lambda_m) * (geom.positions @ direction)
    return np.exp(1j * phases)


def expected_csi(robot: Pose2D, tx, geom: ArrayGeometry, chanspec: ChannelSpec) -> np.ndarray:
    """Expected direct-path CSI (n_rx, n_sub) for a pose/transmitter pair.

    Pure bearing phase at the center wavelength; identical across
    subcarriers (narrowband model, no time-of-flight term).
    """
    theta = ground_truth_bearing(robot, tx)
    sv = steering_vector(theta, geom, wavelength(chanspec))
    return np.repeat(sv[:, None], chanspec.n_sub, axis=1)


def apply_calibration(cal: CalibrationMatrix, frame: CsiFrame) -> CsiFrame:
    """Multiply each tx-antenna slice element-wise by exp(1j * cal.phase).

    Magnitudes are preserved exactly; metadata is unchanged.  Applying
    phase and then its negation recovers the original frame to float32
    rounding.
    """
    if cal.chanspec != frame.chanspec:
        raise DimensionMismatchError(
            f"calibration chanspec {cal.chanspec} does not match frame {frame.chanspec}"
        )
    if cal.n_rx != frame.n_rx or cal.n_sub != frame.n_sub:
        raise DimensionMismatchError(
            f"calibration shape {cal.phase.shape} does not match frame "
            f"({frame.n_rx}, {frame.n_sub})"
        )
    rotor = np.exp(1j * cal.phase)[:, None, :]
    return replace(frame, csi=(frame.csi * rotor).astype(np.complex64))


# Block Krylov settings for `_leading_eigenpairs`.  The start block is
# drawn from its own seeded generator, so results repeat bit for bit and
# the global np.random state is never touched.  A residual of 1e-13 times
# the gap below the subspace bounds the projector error by 1e-13
# (sin-theta theorem), well inside the 1e-12 the SpotFi pseudospectrum
# denominators and the calibration phase need.
_KRYLOV_SEED = 2015
_KRYLOV_TOL = 1e-13
# Basis size at which the Krylov solve gives up for the dense solve.  On
# SpotFi's 80 MHz frames (dim 244, one BLAS thread) a resolvable subspace
# converged within 4-7 vectors at k = 1, 8-14 at 2 and 15-27 at 3, and
# each vector costs ~0.25 ms against ~20-25 ms for the dense covariance +
# eigh.  The calibration's 936 x 500 snapshot matrix converged within 4
# vectors for u0 and 11 for sigma_2, at ~1.2-1.4 ms per vector against
# ~210 ms for the 500 x 500 Gram + eigh.  24 vectors bound the time lost
# on a weak last eigenvalue that converges too slowly; one inside a noise
# bulk is usually caught earlier by the rounding test.
_KRYLOV_MAX_BASIS = 24


def _leading_eigenpairs(snapshots: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top k eigenpairs of C = X X^H / n, X = snapshots (dim, n).

    Returns (values, vectors): the k largest eigenvalues in ascending
    order and their unit eigenvectors as columns, ordered as from `eigh`.

    Block Krylov iteration with Rayleigh-Ritz (Musco & Musco, NeurIPS
    2015) runs first: the basis grows by blocks C^j X G from a seeded
    Gaussian G, C applied as X (X^H V) / n, so no dim x dim matrix is
    formed.  It stops when the Ritz residual ||C y - theta y|| is below
    _KRYLOV_TOL times the Ritz gap below the k pairs.  When that bound
    drops below the rounding floor eps * ||C|| of the residual (the k
    pairs do not separate from the rest of the spectrum), or the basis
    reaches _KRYLOV_MAX_BASIS unconverged, `_dense_eigenpairs` solves
    instead.  np.linalg.LinAlgError propagates.
    """
    dim, n = snapshots.shape
    rows = snapshots.T  # X^H V = conj(X^T conj(V)) without a conjugated copy of X
    limit = min(_KRYLOV_MAX_BASIS, dim)
    rng = np.random.default_rng(_KRYLOV_SEED)
    basis = np.empty((dim, limit), dtype=np.complex128)
    images = np.empty_like(basis)  # C @ basis
    gram = np.empty((limit, limit), dtype=np.complex128)  # basis^H C basis, upper half
    block = snapshots @ _gaussian(rng, (n, k))
    m = 0
    while m + k <= limit:
        start = m
        for v in block.T:
            m = _append_orthonormal(basis, m, v, rng)
        new = basis[:, start:m]
        images[:, start:m] = snapshots @ np.conj(rows @ np.conj(new)) / n
        gram[:m, start:m] = basis[:, :m].conj().T @ images[:, start:m]
        ritz_vals, ritz_coef = np.linalg.eigh(gram[:m, :m], UPLO="U")
        if m > k:
            gap = ritz_vals[m - k] - ritz_vals[m - k - 1]
            if _KRYLOV_TOL * gap <= np.finfo(float).eps * ritz_vals[-1]:
                break  # the test would ask for less than rounding in C y leaves
            top = ritz_coef[:, m - k:]
            vectors = basis[:, :m] @ top
            residual = images[:, :m] @ top - vectors * ritz_vals[m - k:]
            if np.linalg.norm(residual) <= _KRYLOV_TOL * gap:
                return ritz_vals[m - k:], vectors
        block = images[:, start:m]
    return _dense_eigenpairs(snapshots, k)


def _dense_eigenpairs(snapshots: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """`_leading_eigenpairs` from one `eigh` of the smaller Gram matrix.

    For dim <= n that is C = X X^H / n itself.  Otherwise X^H X / n has
    the same nonzero eigenvalues, and each of its eigenvectors v maps to
    X v, normalized; an X v that is exactly zero lies in the null space of
    X, so its eigenvalue is reported as 0 and its column stays zero.
    Fewer snapshots than the k pairs asked for leave C itself to solve.
    """
    dim, n = snapshots.shape
    wide = k <= n < dim
    x = snapshots.conj().T if wide else snapshots
    gram = x @ x.conj().T / n
    values, vectors = np.linalg.eigh(0.5 * (gram + gram.conj().T))
    values, vectors = values[-k:], vectors[:, -k:]
    if not wide:
        return values, vectors
    vectors = snapshots @ vectors
    norms = np.linalg.norm(vectors, axis=0)
    return np.where(norms > 0, values, 0.0), vectors / np.where(norms > 0, norms, 1.0)


def _append_orthonormal(basis: np.ndarray, m: int, v: np.ndarray, rng) -> int:
    """Store v, orthonormalized against basis[:, :m], as column m; return m + 1.

    Classical Gram-Schmidt run twice, which keeps the basis orthonormal
    to working precision.  A column with nothing left once projected (a
    rank-deficient block, as from an all-zero frame, a noiseless single
    path at zero delay or exactly rank-1 calibration snapshots) is
    replaced by a seeded random direction, orthogonalized the same way,
    so the basis still grows.
    """
    q = basis[:, :m]
    w = _project_out(v, q)
    norm = np.linalg.norm(w)
    if not norm > 1e-12 * np.linalg.norm(v):
        w = _project_out(_gaussian(rng, v.shape), q)
        norm = np.linalg.norm(w)
    basis[:, m] = w / norm
    return m + 1


def _project_out(v: np.ndarray, q: np.ndarray) -> np.ndarray:
    for _ in range(2):
        v = v - q @ (q.conj().T @ v)
    return v


def _gaussian(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
