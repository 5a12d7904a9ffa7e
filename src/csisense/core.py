"""Domain types and channel math shared by every other module.

Conventions used throughout the package:

* Angles are radians internally, wrapped to (-pi, pi]; files and the CLI
  speak degrees.
* CSI tensors are indexed [rx_antenna][tx_antenna][subcarrier] and stored
  as complex64 (the wire format carries float32 pairs).
* Antenna 0 is the phase reference: its position is the origin, so its
  steering-vector element is exactly 1.  Synthesis, calibration and every
  bearing estimator steer with the one `steering_vector`, at a single
  bearing or at an array of them.
* A bearing of theta means the transmitter direction whose steering
  phases are (2*pi/lambda) * [cos(theta), sin(theta)] . a_i.  The
  ground-truth bearing formula below is applied literally; whether 0 rad
  is broadside or endfire depends on where the user mounts the array,
  and the whole pipeline is self-consistent either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

SPEED_OF_LIGHT = 299792458.0  # m/s
SUBCARRIER_SPACING_HZ = 312.5e3
# Most receive, and most transmit, antennas a frame carries.
MAX_ANTENNAS = 4
# Farthest an antenna may sit from antenna 0, meters: room for any
# robot-mounted array (the largest in the tests is a 1.02 m square), and
# it keeps each steering phase, and each layout's spacing times its
# antenna index, finite.
MAX_ANTENNA_DISTANCE_M = 2.0
# Largest |x| or |y| of a pose or a transmitter, meters: 1000 km holds any
# survey, and keeps every distance, delay and time-of-flight phase the
# simulator derives from a position finite.
MAX_COORDINATE_M = 1e6

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
    if np.ndim(theta) == 0:
        # Python floats run the same IEEE operations as np.mod and np.where
        # (% and np.mod share one remainder rule), without the array set-up
        # that made this the costliest call of a Pose2D.
        wrapped = (float(theta) + np.pi) % (2.0 * np.pi) - np.pi
        return wrapped + 2.0 * np.pi if wrapped <= -np.pi else wrapped
    wrapped = np.mod(theta + np.pi, 2.0 * np.pi) - np.pi
    return np.where(wrapped <= -np.pi, wrapped + 2.0 * np.pi, wrapped)


def _by_value(cls):
    """Dataclass decorator: `==` compares the fields, ndarrays by shape and value.

    Instances stay unhashable: a hash of array bytes would tell -0.0 from
    0.0, which `==` does not.
    """
    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name))
                 for f in fields(self) if f.compare)
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
                   for a, b in pairs)

    cls.__eq__, cls.__hash__ = __eq__, None
    return cls


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


@_by_value
@dataclass(frozen=True)
class ArrayGeometry:
    """Relative 2-D antenna positions of the receiver array, meters.

    Antenna 0 is the reference and must sit at the origin.  At most
    MAX_ANTENNAS antennas, as no frame carries more, each finite and at
    most MAX_ANTENNA_DISTANCE_M from antenna 0.
    """

    positions: np.ndarray  # (n_rx, 2) float64

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 1:
            raise ConfigurationError("antenna positions must be an (n, 2) array")
        _check_antenna_count(pos.shape[0])
        if not np.all(np.isfinite(pos)):
            raise ConfigurationError("antenna positions must be finite")
        if not np.allclose(pos[0], 0.0):
            raise ConfigurationError("antenna 0 must be at the origin")
        with np.errstate(over="ignore"):  # a distance past the float range is inf, refused
            distance = np.hypot(*(pos - pos[0]).T)
        if np.any(distance > MAX_ANTENNA_DISTANCE_M):
            k = int(np.argmax(distance))
            raise ConfigurationError(f"antenna {k} is {distance[k]:.4g} m from antenna 0; "
                                     f"at most {MAX_ANTENNA_DISTANCE_M:g} m")
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
        _check_antenna_count(n)
        _check_spacing(spacing_m)
        pos = np.zeros((n, 2))
        col = {"x": 0, "y": 1}[axis]
        pos[:, col] = spacing_m * np.arange(n)
        return ArrayGeometry(pos)

    @staticmethod
    def square(spacing_m: float) -> "ArrayGeometry":
        """Four antennas on the corners of an axis-aligned square."""
        _check_spacing(spacing_m)
        return ArrayGeometry(
            np.array([[0.0, 0.0], [spacing_m, 0.0], [spacing_m, spacing_m], [0.0, spacing_m]])
        )


def _check_antenna_count(n: int) -> None:
    if n > MAX_ANTENNAS:
        raise ConfigurationError(f"{n} antennas; a frame carries at most {MAX_ANTENNAS}")


def _check_spacing(spacing_m: float) -> float:
    """A layout's antenna spacing, refused before anything multiplies it."""
    if not abs(spacing_m) <= MAX_ANTENNA_DISTANCE_M:  # NaN compares false too
        raise ConfigurationError(f"antenna spacing must be finite and at most "
                                 f"{MAX_ANTENNA_DISTANCE_M:g} m, got {spacing_m:g}")
    return spacing_m


@dataclass(frozen=True)
class Pose2D:
    """SE(2) pose: position in meters, heading wrapped to (-pi, pi]."""

    x: float
    y: float
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", wrap_angle(float(self.theta)))


@_by_value
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
        if not (1 <= n_rx <= MAX_ANTENNAS and 1 <= n_tx <= MAX_ANTENNAS):
            raise FrameValidationError(f"antenna counts out of range: rx={n_rx} tx={n_tx}")
        expected = self.chanspec.n_sub
        if n_sub != expected:
            raise FrameValidationError(
                f"n_sub={n_sub} does not match chanspec "
                f"({self.chanspec.bandwidth_mhz} MHz expects {expected})"
            )
        if not np.isfinite(self.csi.view(np.float32)).all():
            raise FrameValidationError("csi entries must be finite")
        if len(self.source_mac) != 6:
            raise FrameValidationError("source_mac must be 6 bytes")

    @classmethod
    def _from_checked(cls, csi: np.ndarray, rssi_dbm: float, source_mac: bytes, seq: int,
                      chanspec: ChannelSpec, timestamp_ns: int) -> CsiFrame:
        """A frame of fields that already passed every check of `__post_init__`,
        built without running them again: ingest checks a block of frames at once."""
        frame = cls.__new__(cls)
        frame.__dict__.update(csi=csi, rssi_dbm=rssi_dbm, source_mac=source_mac, seq=seq,
                              chanspec=chanspec, timestamp_ns=timestamp_ns)
        return frame

    @property
    def n_rx(self) -> int:
        return self.csi.shape[0]

    @property
    def n_tx(self) -> int:
        return self.csi.shape[1]

    @property
    def n_sub(self) -> int:
        return self.csi.shape[2]


@_by_value
@dataclass(frozen=True)
class CalibrationMatrix:
    """Per-antenna, per-subcarrier phase corrections, radians.

    The complex form exp(1j * phase), of unit modulus, is `rotor`,
    shaped (n_rx, 1, n_sub) for a frame's csi; both are read-only copies
    built once, so they cannot drift.  The canonical form produced by the
    calibration pipeline has row 0 identically zero (antenna 0 is the
    phase reference); rows then hold inter-antenna relative corrections.
    """

    phase: np.ndarray  # (n_rx, n_sub) float64, radians
    chanspec: ChannelSpec
    rotor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        phase = np.array(self.phase, dtype=np.float64)
        if phase.ndim != 2:
            raise ConfigurationError("calibration phase must be 2-D (n_rx, n_sub)")
        if phase.shape[1] != self.chanspec.n_sub:
            raise ConfigurationError(
                f"calibration has {phase.shape[1]} subcarriers, "
                f"chanspec expects {self.chanspec.n_sub}"
            )
        if not np.all(np.isfinite(phase)):
            raise ConfigurationError("calibration phase must be finite")
        rotor = np.exp(1j * phase)[:, None, :]
        phase.flags.writeable = rotor.flags.writeable = False
        object.__setattr__(self, "phase", phase)
        object.__setattr__(self, "rotor", rotor)

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


@_by_value
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
        if not (_strictly_increasing(tg) and _strictly_increasing(dg)):
            raise ConfigurationError("profile grids must be strictly increasing")
        # min and max both propagate NaN, so NaN fails the test as well
        if values.size and not (values.min() >= 0 and values.max() < np.inf):
            raise ConfigurationError("profile values must be finite and non-negative")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "theta_grid", tg)
        object.__setattr__(self, "dist_grid", dg)

    def argmax_cell(self) -> tuple[int, int]:
        """Indices of the global maximum (first occurrence on ties)."""
        flat = int(np.argmax(self.values))
        return np.unravel_index(flat, self.values.shape)


def _strictly_increasing(grid: np.ndarray) -> bool:
    """A float64 grid that rises at every step between finite ends, so is
    finite throughout; NaN fails every comparison.  An empty grid passes."""
    return grid.size == 0 or bool(-np.inf < grid.flat[0] and grid.flat[-1] < np.inf
                                  and (np.diff(grid) > 0).all())


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


def steering_vector(theta, geom: ArrayGeometry, lambda_m: float) -> np.ndarray:
    """Plane-wave steering exp(j*(2*pi/lambda)*[cos t, sin t].a_i) at a
    bearing t, shape (n_rx,), or at each bearing of an array of them, one
    row per bearing: (n, n_rx) for n bearings (an array of any shape gets
    that shape plus the antenna axis).

    Element 0 is exactly 1 (antenna 0 sits at the origin).  The bearing
    estimators read it through one cache, `aoa._steering_kernel`, which
    MUSIC and SpotFi use as it is and Bartlett's one Gram kernel,
    `aoa._gram_kernel_t`, derives from.  The projections are a stack of
    matrix-vector products, one per bearing, so each row is rounded as a
    bearing on its own is.  One (n_rx, 2) x (2, n) matrix product rounds
    differently: on an AVX-512 OpenBLAS it changed about 40% of the phases
    of a square array.
    """
    if lambda_m <= 0:
        raise ConfigurationError("wavelength must be positive")
    theta = np.asarray(theta, dtype=np.float64)
    angles = theta.reshape(-1)
    directions = np.stack([np.cos(angles), np.sin(angles)], axis=-1)[:, :, None]
    phases = (2.0 * np.pi / lambda_m) * (geom.positions @ directions)[:, :, 0]
    return np.exp(1j * phases).reshape(*theta.shape, geom.n_antennas)


# The array form of `ground_truth_bearing`, for code that handles a whole
# trajectory at once.  It runs the scalar function's operations element by
# element, so every entry equals the scalar result bit for bit.

def _pose_arrays(poses) -> tuple[np.ndarray, np.ndarray]:
    """Positions (n, 2) and headings (n,) of a sequence of Pose2D."""
    rows = np.array([(p.x, p.y, p.theta) for p in poses], dtype=np.float64).reshape(-1, 3)
    return rows[:, :2], rows[:, 2]


def _ground_truth_bearings(xy: np.ndarray, heading: np.ndarray, tx) -> np.ndarray:
    """`ground_truth_bearing` of each pose (positions xy, headings heading)."""
    tx = np.asarray(tx, dtype=np.float64)
    dx = xy[:, 0] - tx[0]
    dy = xy[:, 1] - tx[1]
    if np.any((dx == 0.0) & (dy == 0.0)):
        raise DegenerateGeometryError("robot position coincides with transmitter")
    return wrap_angle(np.pi / 2.0 - (np.arctan2(dy, dx) - heading))


def apply_calibration(cal: CalibrationMatrix, frame: CsiFrame) -> CsiFrame:
    """Multiply each tx-antenna slice element-wise by exp(1j * cal.phase) (`cal.rotor`).

    Magnitudes are preserved exactly; metadata is unchanged.  Applying
    phase and then its negation recovers the original frame to float32
    rounding.  `apply_calibration_block` on a block of one frame.
    """
    csi, finite = apply_calibration_block(cal, frame.chanspec, frame.csi[None])
    if not finite:
        raise FrameValidationError("calibrated csi overflows complex64: "
                                   "csi entries must be finite")
    return CsiFrame(csi=csi[0], rssi_dbm=frame.rssi_dbm, source_mac=frame.source_mac,
                    seq=frame.seq, chanspec=frame.chanspec, timestamp_ns=frame.timestamp_ns)


def apply_calibration_block(cal: CalibrationMatrix, chanspec: ChannelSpec,
                            csi: np.ndarray) -> tuple[np.ndarray, int]:
    """Calibrate a block of frames of one channel, (frames, n_rx, n_tx, n_sub).

    Returns the complex64 product with `cal.rotor`, from one multiply,
    and how many of its leading frames are finite, from one check.  The
    product of finite csi and a unit rotor stops being finite only by
    overflowing complex64 (FLT_MAX * (1 + 1j) rotated 45 degrees), which
    the caller reports; it raises no warning.
    """
    n_frames, n_rx, _, n_sub = csi.shape
    if cal.chanspec != chanspec:
        raise DimensionMismatchError(
            f"calibration chanspec {cal.chanspec} does not match frame {chanspec}"
        )
    if cal.n_rx != n_rx:  # equal chanspecs pin both n_sub to chanspec.n_sub
        raise DimensionMismatchError(
            f"calibration shape {cal.phase.shape} does not match frame ({n_rx}, {n_sub})"
        )
    with np.errstate(over="ignore"):
        calibrated = (csi * cal.rotor).astype(np.complex64)
    floats = calibrated.view(np.float32)
    if np.isfinite(floats).all():
        return calibrated, n_frames
    return calibrated, int(np.argmin(np.isfinite(floats.reshape(n_frames, -1)).all(axis=1)))


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
# eigh.  On the calibration's 936 x 500 snapshot matrix u0 converged
# within 4 vectors and, on the same basis continued, sigma_2's vector
# within 8-9, at ~0.65 ms per vector against ~210 ms for the 500 x 500
# Gram + eigh.  24 vectors bound the time lost on a weak last eigenvalue
# that converges too slowly; one inside a noise bulk is usually caught
# earlier by the rounding test.
_KRYLOV_MAX_BASIS = 24


def _leading_eigenpairs(snapshots: np.ndarray, k: int, then_next: bool = False):
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

    With then_next, a third item follows: the Ritz vector y of the next
    eigenvalue down, theta.  The k pairs are still returned as taken at
    the step where they converged, but the same basis keeps growing until
    theta is converged to rounding: ||C y - theta y||^2 <= eps * theta *
    (theta - theta'), theta' the Ritz value below it (theta's error is at
    most that residual squared over the gap), or theta <= eps * theta_1
    (exactly rank-k data).  Theta itself is not returned: its rounding
    error is ~eps * theta_1, so a caller takes a Rayleigh quotient at y
    of the operator it wants instead.  The item is None when the k pairs
    came from the dense solve, or theta reached the basis limit or a
    rounding floor (eps * theta_1)^2 under its residual test first.
    """
    dim, n = snapshots.shape
    rows = snapshots.T  # X^H V = conj(X^T conj(V)) without a conjugated copy of X
    limit = min(_KRYLOV_MAX_BASIS, dim)
    rng = np.random.default_rng(_KRYLOV_SEED)
    eps = np.finfo(float).eps
    basis = np.empty((dim, limit), dtype=np.complex128)
    images = np.empty_like(basis)  # C @ basis
    gram = np.empty((limit, limit), dtype=np.complex128)  # basis^H C basis, upper half
    block = snapshots @ _gaussian(rng, (n, k))
    leading = None
    m = 0
    while m + k <= limit:
        start = m
        for v in block.T:
            m = _append_orthonormal(basis, m, v, rng)
        new = basis[:, start:m]
        images[:, start:m] = snapshots @ np.conj(rows @ np.conj(new)) / n
        gram[:m, start:m] = basis[:, :m].conj().T @ images[:, start:m]
        ritz_vals, ritz_coef = np.linalg.eigh(gram[:m, :m], UPLO="U")
        if leading is None and m > k:
            gap = ritz_vals[m - k] - ritz_vals[m - k - 1]
            if _KRYLOV_TOL * gap <= eps * ritz_vals[-1]:
                break  # the test would ask for less than rounding in C y leaves
            top = ritz_coef[:, m - k:]
            vectors = basis[:, :m] @ top
            residual = images[:, :m] @ top - vectors * ritz_vals[m - k:]
            if np.linalg.norm(residual) <= _KRYLOV_TOL * gap:
                if not then_next:
                    return ritz_vals[m - k:], vectors
                leading = ritz_vals[m - k:], vectors
        if leading is not None:
            theta, coef = ritz_vals[m - k - 1], ritz_coef[:, m - k - 1]
            if theta <= eps * ritz_vals[-1]:
                return (*leading, basis[:, :m] @ coef)
            if m > k + 1:
                gap = theta - ritz_vals[m - k - 2]
                if theta * gap <= eps * ritz_vals[-1] ** 2:
                    break  # as above, for the squared residual test
                following = basis[:, :m] @ coef
                residual = images[:, :m] @ coef - following * theta
                if np.vdot(residual, residual).real <= eps * theta * gap:
                    return (*leading, following)
        block = images[:, start:m]
    if leading is None:
        leading = _dense_eigenpairs(snapshots, k)
    return (*leading, None) if then_next else leading


def _dense_eigenpairs(snapshots: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """`_leading_eigenpairs` from one `eigh` of the smaller Gram matrix.

    For dim <= n that is C = X X^H / n itself.  Otherwise X^H X / n has
    the same nonzero eigenvalues, and each of its eigenvectors v maps to
    X v, normalized; an X v that is exactly zero lies in the null space of
    X, so its eigenvalue is reported as 0 and its column stays zero.
    Fewer snapshots than the k pairs asked for leave C itself to solve.

    Snapshot matrices stacked on leading axes, (..., dim, n), are solved
    one by one in a single call each of matmul and `eigh`, giving values
    (..., k) and vectors (..., dim, k); each matrix's pairs are those it
    would get alone, bit for bit.
    """
    dim, n = snapshots.shape[-2:]
    wide = k <= n < dim
    x = _adjoint(snapshots) if wide else snapshots
    gram = x @ _adjoint(x) / n
    values, vectors = np.linalg.eigh(0.5 * (gram + _adjoint(gram)))
    values, vectors = values[..., -k:], vectors[..., -k:]
    if not wide:
        return values, vectors
    vectors = snapshots @ vectors
    norms = np.linalg.norm(vectors, axis=-2)
    return (np.where(norms > 0, values, 0.0),
            vectors / np.where(norms > 0, norms, 1.0)[..., None, :])


def _adjoint(x: np.ndarray) -> np.ndarray:
    """The conjugate transpose of each matrix on the last two axes."""
    return np.swapaxes(x.conj(), -1, -2)


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
