"""Wireless phase-calibration pipeline.

Recovers per-antenna, per-subcarrier phase corrections from a dataset of
robot poses and raw CSI frames collected around a transmitter at a known
location, assuming the direct path dominates:

1. suppress the bearing-induced phase of each frame using the expected
   direct-path CSI for its pose,
2. normalize each frame's random common phase and remove its best-fit
   linear phase slope across subcarriers (packet-detection phase and
   time-of-flight, which the expected-CSI model omits),
3. take the phase of the first left-singular vector u0 of the stacked
   snapshots (the dominant common structure is the hardware bias),
4. use that phase as the calibration: for every unit-modulus-element x,
   |u0^H x| <= sum_i |u0_i| with equality at x = exp(j*angle(u0)), so it
   minimizes n - |u0^H x|^2 in closed form and needs no refinement.

Only u0 and the spectral gap sigma_1/sigma_2 are needed, so step 3 finds
the leading singular pair with the eigensolver SpotFi also uses, then
sigma_2 as the leading singular value of the matrix with u0 deflated
out.  No SVD runs: when either solve does not separate, the solver's
own dense fallback is an `eigh` of the smaller Gram matrix.

The recovered bias is returned *negated* and referenced to antenna 0
(row 0 identically zero), so the stored matrix is the correction that
`apply_calibration` multiplies in directly.  Anything common to all
antennas -- a per-subcarrier offset and a linear-in-frequency slope --
is not observable by this pipeline and not meaningful to bearing
estimation; comparisons against ground truth must quotient it out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ArrayGeometry,
    CalibrationMatrix,
    ChannelSpec,
    CsiFrame,
    CsiSenseError,
    DimensionMismatchError,
    Pose2D,
    SUBCARRIER_SPACING_HZ,
    _leading_eigenpairs,
    ground_truth_bearing,
    steering_vector,
    subcarrier_frequencies,
    wavelength,
    wrap_angle,
)


class CalibrationError(CsiSenseError):
    """Calibration pipeline failure (bad dataset, degenerate data)."""


class LowConfidenceError(CalibrationError):
    """Spectral gap below threshold: data likely not line-of-sight dominated."""


@dataclass
class CalibrationDataset:
    """Time-aligned (pose, frame) pairs plus the measured setup geometry."""

    pairs: list[tuple[Pose2D, CsiFrame]]
    tx_location: np.ndarray  # (2,) meters
    geom: ArrayGeometry
    chanspec: ChannelSpec

    def __post_init__(self):
        self.tx_location = np.asarray(self.tx_location, dtype=np.float64)

    def validate(self, min_pairs: int = 50) -> None:
        if len(self.pairs) < min_pairs:
            raise CalibrationError(
                f"{len(self.pairs)} pose/frame pairs; at least {min_pairs} required"
            )
        for _, frame in self.pairs:
            if frame.chanspec != self.chanspec:
                raise CalibrationError("all frames must share the dataset chanspec")
            if frame.n_rx != self.geom.n_antennas:
                raise CalibrationError("frame antenna count does not match geometry")


@dataclass
class CoarseResult:
    """Leading singular pair stage output: closed-form phase and its vector."""

    phi_coarse: np.ndarray  # (n_rx, n_sub) radians, angle of u0
    u0: np.ndarray  # (n,) first left-singular vector, unit norm
    singular_values: np.ndarray  # (sigma_1, sigma_2)

    @property
    def spectral_gap(self) -> float:
        """sigma_1 / sigma_2 (inf for exactly rank-1 data)."""
        sigma_1, sigma_2 = self.singular_values
        return float(sigma_1 / sigma_2) if sigma_2 > 0 else float("inf")


@dataclass
class CalibrationResult:
    """Recovered correction plus the fit diagnostics the CLI reports.

    Closed form: both objectives are equal and `converged` is always true.
    """

    matrix: CalibrationMatrix
    spectral_gap: float
    coarse_objective: float
    fine_objective: float
    converged: bool
    n_pairs: int


def suppress_bearing(
    frame: CsiFrame,
    pose: Pose2D,
    tx_location,
    geom: ArrayGeometry,
    tx_index: int = 0,
) -> np.ndarray:
    """Element-wise product of one tx slice with conj(expected CSI).

    Removes the bearing-induced inter-antenna phase, leaving bias, common
    phase and the per-subcarrier time-of-flight slope.  Magnitudes are
    unchanged (the expected CSI is unit modulus).  The expected CSI is one
    steering vector repeated over subcarriers, so its conjugate is
    broadcast across them rather than materialized.
    """
    if frame.n_rx != geom.n_antennas:
        raise DimensionMismatchError(
            f"frame has {frame.n_rx} antennas, geometry has {geom.n_antennas}"
        )
    if not 0 <= tx_index < frame.n_tx:
        raise DimensionMismatchError(f"tx index {tx_index} out of range")
    theta = ground_truth_bearing(pose, tx_location)
    steering = steering_vector(theta, geom, wavelength(frame.chanspec))
    return frame.csi[:, tx_index, :].astype(np.complex128) * np.conj(steering)[:, None]


def coarse_calibration(sups: list[np.ndarray]) -> CoarseResult:
    """Stack suppressed snapshots and extract the dominant component.

    Each snapshot is flattened rx-major into one column of the data
    matrix M (n x T); the strongest shared structure is its first
    left-singular vector u0, whose element-wise phase is the calibration
    estimate.  Only u0, sigma_1 and sigma_2 (for the spectral gap) are
    kept, so no SVD of M runs:

    * u0 and sigma_1 = sqrt(T * lambda_1) come from
      `core._leading_eigenpairs` on M, as the top eigenpair of M M^H / T;
    * sigma_2 is the top singular value of the deflated M - u0 (u0^H M),
      from the same solver, which ends in one `eigh` of the T x T Gram
      matrix when sigma_2 does not separate (inside a noise bulk, say).
    """
    if len(sups) < 2:
        raise CalibrationError("need at least 2 snapshots")
    shape = sups[0].shape
    if any(s.shape != shape for s in sups):
        raise CalibrationError("snapshots must share one shape")
    stacked = np.stack([np.asarray(s, dtype=np.complex128).ravel() for s in sups], axis=1)
    if not np.any(stacked):
        raise CalibrationError("degenerate all-zero snapshots")
    n_pairs = stacked.shape[1]
    try:
        lambda_1, leading = _leading_eigenpairs(stacked, 1)
        u0 = leading[:, 0]
        lambda_2 = _leading_eigenpairs(stacked - np.outer(u0, u0.conj() @ stacked), 1)[0]
    except np.linalg.LinAlgError as exc:
        raise CalibrationError(f"eigensolver failed: {exc}") from exc
    sv = np.array([_singular_value(n_pairs, lambda_1[0]),
                   _singular_value(n_pairs, lambda_2[0])])
    return CoarseResult(phi_coarse=np.angle(u0).reshape(shape), u0=u0, singular_values=sv)


def _singular_value(n_pairs: int, eigenvalue: float) -> float:
    """sigma = sqrt(T * lambda) for an eigenvalue lambda of M M^H / T.

    An eigenvalue of this positive semi-definite matrix can land a
    rounding error below zero; the clamp keeps the spectral gap a number.
    """
    return float(np.sqrt(n_pairs * max(float(eigenvalue), 0.0)))


def calibrate(
    dataset: CalibrationDataset,
    min_pairs: int = 50,
    spectral_gap_min: float = 3.0,
    tx_index: int = 0,
) -> CalibrationResult:
    """Run the full pipeline on a pose/frame dataset.

    Raises CalibrationError for too few or inconsistent pairs and
    LowConfidenceError when sigma_1/sigma_2 falls below
    `spectral_gap_min` (the line-of-sight dominance check).
    """
    dataset.validate(min_pairs)
    chanspec = dataset.chanspec
    freqs = subcarrier_frequencies(chanspec)
    mid = freqs.size // 2

    sups = []
    for pose, frame in dataset.pairs:
        sup = suppress_bearing(frame, pose, dataset.tx_location, dataset.geom, tx_index)
        # Packet-detection/CFO phase: rotate so the reference element
        # (antenna 0, middle subcarrier) has zero phase.  Row 0 of the
        # expected CSI is all ones, so this equals normalizing the raw
        # frame by the same element.
        ref = sup[0, mid]
        mag = np.abs(ref)
        if mag > 0:
            sup = sup * (np.conj(ref) / mag)
        sups.append(sup)

    # Per-frame time-of-flight slope, fitted against the first snapshot
    # so the (arbitrary) bias-phase structure cancels out of the fit.
    # The removed slopes differ from the true ones by one common value,
    # which lands in the unobservable gauge.
    ref_sup = sups[0]
    rel_freq = freqs - freqs[mid]
    unit = np.isclose(np.diff(freqs), SUBCARRIER_SPACING_HZ)
    for t in range(len(sups)):
        slope = _fit_common_slope(sups[t] * np.conj(ref_sup), unit)
        sups[t] = sups[t] * np.exp(-1j * slope * rel_freq)[None, :]

    coarse = coarse_calibration(sups)
    gap = coarse.spectral_gap
    if gap < spectral_gap_min:
        raise LowConfidenceError(
            f"spectral gap {gap:.2f} below {spectral_gap_min:.2f}: "
            "data does not look line-of-sight dominated"
        )
    # Off-component power n - |u0^H exp(j*phi)|^2, already at its minimum.
    phi, u0 = coarse.phi_coarse, coarse.u0
    x = np.exp(1j * phi.ravel())
    objective = max(float(u0.size - np.abs(np.vdot(u0, x)) ** 2), 0.0)

    # Negate the recovered bias to get the correction, and reference it
    # to antenna 0 (row 0 becomes zero: the inter-antenna relative form).
    correction = wrap_angle(-(phi - phi[0:1, :]))
    matrix = CalibrationMatrix(phase=correction, chanspec=chanspec)
    return CalibrationResult(
        matrix=matrix,
        spectral_gap=gap,
        coarse_objective=objective,
        fine_objective=objective,
        converged=True,
        n_pairs=len(dataset.pairs),
    )


def save_calibration(path, cal: CalibrationMatrix, geom: ArrayGeometry) -> None:
    """Write the text calibration format: header lines, then degrees."""
    lines = [
        "# csisense wireless phase calibration",
        f"channel = {cal.chanspec.channel_number}",
        f"bandwidth_mhz = {cal.chanspec.bandwidth_mhz}",
        f"n_rx = {cal.n_rx}",
        f"n_sub = {cal.n_sub}",
        f"geometry = {format_geometry(geom)}",
        "",
    ]
    deg = np.degrees(cal.phase)
    for row in deg:
        lines.append(",".join(f"{v:.10g}" for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_calibration(path) -> tuple[CalibrationMatrix, ArrayGeometry]:
    """Read a calibration file; returns the matrix and the array geometry."""
    header: dict[str, str] = {}
    rows: list[list[float]] = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" in line and not rows:
                key, _, value = line.partition("=")
                header[key.strip()] = value.strip()
                continue
            try:
                rows.append([float(v) for v in line.split(",")])
            except ValueError as exc:
                raise CalibrationError(f"bad value on line {lineno} of {path}: {exc}") from exc
    try:
        chanspec = ChannelSpec(int(header["channel"]), int(header["bandwidth_mhz"]))
        n_rx = int(header["n_rx"])
        n_sub = int(header["n_sub"])
        geom = parse_geometry(header["geometry"])
    except (KeyError, ValueError) as exc:
        raise CalibrationError(f"bad calibration file header: {exc}") from exc
    if len(rows) != n_rx or any(len(row) != n_sub for row in rows):
        raise CalibrationError(
            f"calibration matrix is not the {n_rx} rows of {n_sub} values the header says"
        )
    phase = np.radians(np.array(rows, dtype=np.float64))
    return CalibrationMatrix(phase=phase, chanspec=chanspec), geom


def format_geometry(geom: ArrayGeometry) -> str:
    return "; ".join(f"{x:.10g},{y:.10g}" for x, y in geom.positions)


def parse_point(text: str) -> tuple[float, float]:
    """Parse one finite "x,y" pair; CalibrationError names a bad one."""
    try:
        x, y = (float(v) for v in text.split(","))
    except ValueError:
        x = y = float("nan")
    if not (np.isfinite(x) and np.isfinite(y)):
        raise CalibrationError(f'bad point "{text.strip()}": expected finite "x,y"')
    return x, y


def parse_geometry(text: str) -> ArrayGeometry:
    """Parse antenna positions "x,y; x,y; ..." (meters)."""
    points = [parse_point(chunk) for chunk in text.split(";")]
    return ArrayGeometry(np.array(points, dtype=np.float64))


def _fit_common_slope(ratios: np.ndarray, unit: np.ndarray) -> float:
    """Best-fit linear phase slope (rad/Hz) across subcarriers.

    Uses only the adjacent subcarrier pairs that `unit` marks as sitting at
    the base spacing (np.diff of the frequencies), summed over antennas,
    so pilot/DC gaps never alias the estimate.
    """
    prod = ratios[:, 1:][:, unit] * np.conj(ratios[:, :-1][:, unit])
    z = np.sum(prod)
    if z == 0:
        return 0.0
    return float(np.angle(z) / SUBCARRIER_SPACING_HZ)
