"""Wireless phase-calibration pipeline.

Recovers per-antenna, per-subcarrier phase corrections from a dataset of
robot poses and raw CSI frames collected around a transmitter at a known
location, assuming the direct path dominates:

1. suppress the bearing-induced phase of each frame: multiply every
   subcarrier by the conjugate steering vector at the frame's
   ground-truth bearing (the expected direct-path CSI of a narrowband
   model), which leaves magnitudes as they are,
2. remove each frame's best-fit linear phase slope across subcarriers
   (time-of-flight, which that model omits); its random
   common phase needs no removal: a unit scalar on one column of the
   stacked snapshots M cancels from M M^H and from the slope fit,
3. take the phase of the first left-singular vector u0 of the stacked
   snapshots (the dominant common structure is the hardware bias) as the
   calibration: for every unit-modulus-element x, |u0^H x| <= sum_i |u0_i|
   with equality at x = exp(j*angle(u0)), so it minimizes n - |u0^H x|^2
   in closed form and needs no refinement.

Steps 1 and 2 run as the frames arrive, a block at a time, into the
columns of M, which is allocated once for the whole dataset; a block is
dropped once its columns are written, so that a capture's csi is never
held whole.  Step 3 runs on the whole of M.

Only u0 and the spectral gap sigma_1/sigma_2 are needed, so step 3 runs
the eigensolver SpotFi also uses on M M^H / T, with one Krylov basis for
both values: u0 and sigma_1 are taken where they converge, and the basis
keeps growing until the next Ritz vector v2 has converged.  sigma_2 is
then one Rayleigh quotient, at v2, of M with u0 deflated out.  No SVD
runs: when u0 or v2 does not converge, an `eigh` of the smaller Gram
matrix (of M, or of the deflated M) stands in.

The recovered bias is returned *negated* and referenced to antenna 0
(row 0 identically zero), so the stored matrix is the correction that
`apply_calibration` multiplies in directly.  Anything common to all
antennas -- a per-subcarrier offset and a linear-in-frequency slope --
is not observable by this pipeline and not meaningful to bearing
estimation; comparisons against ground truth must quotient it out.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .codec import REPLAY_BLOCK
from .core import (
    ArrayGeometry,
    CalibrationMatrix,
    ChannelSpec,
    CsiFrame,
    CsiSenseError,
    DegenerateGeometryError,
    DimensionMismatchError,
    Pose2D,
    SUBCARRIER_SPACING_HZ,
    _dense_eigenpairs,
    _ground_truth_bearings,
    _leading_eigenpairs,
    _pose_arrays,
    steering_vector,
    subcarrier_frequencies,
    wavelength,
    wrap_angle,
)


# Least sigma_1 / sigma_2 that `calibrate` accepts as line-of-sight dominated.
SPECTRAL_GAP_MIN = 3.0

# Least pose/frame pairs `calibrate` accepts by default.
MIN_PAIRS = 50

# Frames per batch of steps 1 and 2 (`_SnapshotMatrix.add`).  On the
# survey-sq80 benchmark's 500 frames (80 MHz, 4 antennas; M is 7.5 MB)
# `calibrate`'s traced peak was 8.9 MB at 8, 11.0 MB at 32 and 8.8 MB at
# 4, where the call ran ~5% slower.
_SNAPSHOT_BATCH = 8


class CalibrationError(CsiSenseError):
    """Calibration pipeline failure (bad dataset, degenerate data)."""


class LowConfidenceError(CalibrationError):
    """Spectral gap below threshold: data likely not line-of-sight dominated."""


@dataclass(eq=False)
class CalibrationDataset:
    """Time-aligned (pose, frame) pairs plus the measured setup geometry."""

    pairs: list[tuple[Pose2D, CsiFrame]]
    tx_location: np.ndarray  # (2,) meters
    geom: ArrayGeometry
    chanspec: ChannelSpec

    def __post_init__(self):
        self.tx_location = np.asarray(self.tx_location, dtype=np.float64)


@dataclass(eq=False)
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

    Closed form: no refinement runs, so `fine_objective` equals `coarse_objective`.
    """

    matrix: CalibrationMatrix
    spectral_gap: float
    coarse_objective: float
    fine_objective: float
    n_pairs: int


def coarse_calibration(sups: list[np.ndarray]) -> CoarseResult:
    """Stack suppressed snapshots and extract the dominant component.

    Each snapshot is flattened rx-major into one column of the data
    matrix M (n x T); the strongest shared structure is its first
    left-singular vector u0, whose element-wise phase is the calibration
    estimate.  Only u0, sigma_1 and sigma_2 (for the spectral gap) are
    kept, so no SVD of M runs:

    * u0 and sigma_1 = sqrt(T * lambda_1) come from
      `core._leading_eigenpairs` on M, as the top eigenpair of M M^H / T;
    * sigma_2 is the top singular value of the deflated M - u0 (u0^H M).
      The same Krylov basis, grown on past u0, gives its singular vector
      v2, and one Rayleigh quotient of the deflated matrix at v2 gives
      its value.  When v2 does not converge (inside a noise bulk, say),
      one `eigh` of the deflated matrix's T x T Gram matrix does.
    """
    if len(sups) < 2:
        raise CalibrationError("need at least 2 snapshots")
    shape = sups[0].shape
    if any(s.shape != shape for s in sups):
        raise CalibrationError("snapshots must share one shape")
    stacked = np.stack([np.asarray(s, dtype=np.complex128).ravel() for s in sups], axis=1)
    if not np.any(stacked):
        raise CalibrationError("degenerate all-zero snapshots")
    return _coarse_from_columns(stacked, shape)


def _coarse_from_columns(stacked: np.ndarray, shape: tuple[int, ...]) -> CoarseResult:
    """`coarse_calibration` of the data matrix M itself, one snapshot per column.

    One Krylov basis serves both values: u0 and lambda_1 are taken at the
    step where they converge, and the basis keeps growing until the next
    Ritz vector v2 is converged to rounding.  sigma_2 is then the
    Rayleigh quotient of the deflated D = M - u0 (u0^H M) at v2,
    ||D^H v2|| / ||v2||: the Ritz value of M M^H itself carries an error
    of ~eps * sigma_1^2, too coarse for a small sigma_2.  When v2 does
    not converge, the deflated matrix is formed, into the buffer of its
    rank-1 term, for one `eigh` of its smaller Gram matrix.
    """
    n_pairs = stacked.shape[1]
    try:
        lambda_1, leading, following = _leading_eigenpairs(stacked, 1, then_next=True)
        u0 = leading[:, 0]
        if following is None:
            deflated = np.outer(u0, u0.conj() @ stacked)
            np.subtract(stacked, deflated, out=deflated)
            sigma_2 = _singular_value(n_pairs, _dense_eigenpairs(deflated, 1)[0][0])
        else:
            sigma_2 = _deflated_rayleigh(stacked, u0, following)
    except np.linalg.LinAlgError as exc:
        raise CalibrationError(f"eigensolver failed: {exc}") from exc
    sv = np.array([_singular_value(n_pairs, lambda_1[0]), sigma_2])
    return CoarseResult(phi_coarse=np.angle(u0).reshape(shape), u0=u0, singular_values=sv)


def _deflated_rayleigh(stacked: np.ndarray, u0: np.ndarray, v: np.ndarray) -> float:
    """||D^H v|| / ||v|| for D = M - u0 (u0^H M): one pass over M for both products.

    D^H v = M^H v - (M^H u0)(u0^H v), conjugated as a whole (the norm
    does not see it) so that M^T, a view, does the products.
    """
    products = stacked.T @ np.conj(np.stack([v, u0], axis=1))
    image = products[:, 0] - products[:, 1] * np.vdot(v, u0)
    return float(np.linalg.norm(image) / np.linalg.norm(v))


def _singular_value(n_pairs: int, eigenvalue: float) -> float:
    """sigma = sqrt(T * lambda) for an eigenvalue lambda of M M^H / T.

    An eigenvalue of this positive semi-definite matrix can land a
    rounding error below zero; the clamp keeps the spectral gap a number.
    """
    return float(np.sqrt(n_pairs * max(float(eigenvalue), 0.0)))


def calibrate(
    dataset: CalibrationDataset,
    min_pairs: int = MIN_PAIRS,
    tx_index: int = 0,
) -> CalibrationResult:
    """Run the full pipeline on a pose/frame dataset: its frames stacked in
    blocks as ingest cuts a capture, each as `_calibrate_blocks` asks for it.

    Raises CalibrationError for too few or inconsistent pairs and
    LowConfidenceError when sigma_1/sigma_2 falls below
    `SPECTRAL_GAP_MIN` (the line-of-sight dominance check).
    """
    pairs = dataset.pairs
    runs = (list(ks) for _, ks in itertools.groupby(range(len(pairs)), lambda k: (
        k // REPLAY_BLOCK, pairs[k][1].chanspec, pairs[k][1].n_rx, pairs[k][1].n_tx)))
    blocks = ((pairs[ks[0]][1].chanspec, np.stack([pairs[k][1].csi for k in ks]),
               *_pose_arrays(pairs[k][0] for k in ks)) for ks in runs)
    return _calibrate_blocks(blocks, len(pairs), dataset.tx_location, dataset.geom,
                             dataset.chanspec, min_pairs, tx_index)


def _calibrate_blocks(blocks: Iterable[tuple[ChannelSpec, np.ndarray, np.ndarray, np.ndarray]],
                      n_frames: int, tx_location: np.ndarray, geom: ArrayGeometry,
                      chanspec: ChannelSpec | None, min_pairs: int,
                      tx_index: int) -> CalibrationResult:
    """`calibrate` of at most `n_frames` frames that come in blocks, each (its
    chanspec, its csi (frames, n_rx, n_tx, n_sub), its frames' positions
    (frames, 2) and headings (frames,)), on the dataset chanspec `chanspec`
    (None: the first block's).

    Steps 1 and 2 of the module docstring run as each block arrives
    (`_SnapshotMatrix.add`), into M's columns, so no block is kept once
    its columns are written; step 3 and its closed-form objective run on
    the whole of M.  The checks fail in the order they would frame by
    frame: whatever raises while `blocks` is read (an ingest fault, a
    missing pose) first; then the pair count, a block of another chanspec
    or antenna count, fewer than 2 snapshots, the tx index, a pose on the
    transmitter and all-zero snapshots.  A block that fails a check stops
    the computing but not the reading, and its error waits for its turn.
    """
    snapshots, n_pairs, misfit, tx_fault, degenerate = None, 0, None, None, None
    for block_chanspec, csi, xy, heading in blocks:
        if snapshots is None:
            chanspec = block_chanspec if chanspec is None else chanspec
            snapshots = _SnapshotMatrix(n_frames, tx_location, geom, chanspec)
        n_pairs += len(csi)
        if misfit is None and block_chanspec != chanspec:
            misfit = CalibrationError("all frames must share the dataset chanspec")
        elif misfit is None and csi.shape[1] != geom.n_antennas:
            misfit = CalibrationError("frame antenna count does not match geometry")
        if tx_fault is None and not 0 <= tx_index < csi.shape[2]:
            tx_fault = DimensionMismatchError(f"tx index {tx_index} out of range")
        if misfit is None and tx_fault is None and degenerate is None:
            try:
                snapshots.add(csi[:, :, tx_index, :], xy, heading)
            except DegenerateGeometryError as exc:
                degenerate = exc
    if n_pairs < min_pairs:
        raise CalibrationError(f"{n_pairs} pose/frame pairs; at least {min_pairs} required")
    if misfit is not None:
        raise misfit
    if n_pairs < 2:
        raise CalibrationError("need at least 2 snapshots")
    if tx_fault is not None:
        raise tx_fault
    if degenerate is not None:
        raise degenerate
    if not snapshots.nonzero:
        raise CalibrationError("degenerate all-zero snapshots")
    columns = snapshots.columns[:, :n_pairs]
    coarse = _coarse_from_columns(columns, (geom.n_antennas, chanspec.n_sub))
    gap = coarse.spectral_gap
    if gap < SPECTRAL_GAP_MIN:
        raise LowConfidenceError(
            f"spectral gap {gap:.2f} below {SPECTRAL_GAP_MIN:.2f}: "
            "data does not look line-of-sight dominated"
        )
    # Off-component power n - |u0^H exp(j*phi)|^2 at its minimum, n - (sum_i |u0_i|)^2.
    phi, u0 = coarse.phi_coarse, coarse.u0
    objective = max(float(u0.size - np.sum(np.abs(u0)) ** 2), 0.0)

    # Negate the recovered bias to get the correction, and reference it
    # to antenna 0 (row 0 becomes zero: the inter-antenna relative form).
    correction = wrap_angle(-(phi - phi[0:1, :]))
    matrix = CalibrationMatrix(phase=correction, chanspec=chanspec)
    return CalibrationResult(
        matrix=matrix,
        spectral_gap=gap,
        coarse_objective=objective,
        fine_objective=objective,
        n_pairs=n_pairs,
    )


class _SnapshotMatrix:
    """The data matrix M (n_rx * n_sub, n_frames), filled as frames arrive:
    frame t's processed snapshot in column t.

    Each snapshot is its frame's tx slice times the conjugate steering at
    the frame's ground-truth bearing (step 1), with its time-of-flight
    slope removed (step 2): element for element the operations of one
    frame at a time, run `_SNAPSHOT_BATCH` frames at a time, which bounds
    the slope fit's temporaries.  `nonzero` tells whether any column
    written holds a nonzero value: each batch is tested just before it is
    written, until one does.
    """

    def __init__(self, n_frames: int, tx_location: np.ndarray, geom: ArrayGeometry,
                 chanspec: ChannelSpec):
        freqs = subcarrier_frequencies(chanspec)
        self.rel_freq = freqs - freqs[freqs.size // 2]
        self.unit = np.isclose(np.diff(freqs), SUBCARRIER_SPACING_HZ)
        self.lambda_m = wavelength(chanspec)
        self.tx_location, self.geom = tx_location, geom
        self.columns = np.empty((geom.n_antennas * freqs.size, n_frames), dtype=np.complex128)
        self.stop = 0  # columns written
        self.nonzero = False
        self.ref_conj = None

    def add(self, slices: np.ndarray, xy: np.ndarray, heading: np.ndarray) -> None:
        """Write the snapshots of frames with tx slices (frames, n_rx, n_sub),
        taken at positions xy and headings heading, into the next columns."""
        theta = _ground_truth_bearings(xy, heading, self.tx_location)
        conj_steering = np.conj(steering_vector(theta, self.geom, self.lambda_m))
        for k in range(0, len(slices), _SNAPSHOT_BATCH):
            sup = slices[k:k + _SNAPSHOT_BATCH].astype(np.complex128)
            sup *= conj_steering[k:k + _SNAPSHOT_BATCH, :, None]
            # Per-frame time-of-flight slope, fitted against the first snapshot
            # so the (arbitrary) bias-phase structure cancels out of the fit.
            # The removed slopes differ from the true ones by one common value,
            # which lands in the unobservable gauge.
            if self.ref_conj is None:
                self.ref_conj = np.conj(sup[0])
            slopes = _fit_common_slopes(sup * self.ref_conj, self.unit)
            sup *= np.exp(-1j * slopes[:, None] * self.rel_freq)[:, None, :]
            self.nonzero = self.nonzero or bool(np.any(sup))
            start, self.stop = self.stop, self.stop + len(sup)
            self.columns[:, start:self.stop] = sup.reshape(len(sup), -1).T


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
    """Read a calibration file; returns the matrix and the array geometry.

    A file that is not UTF-8 text raises CalibrationError naming it.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise CalibrationError(f"bad calibration file {path}: {exc}") from exc
    header: dict[str, str] = {}
    rows: list[list[float]] = []
    for lineno, raw in enumerate(lines, start=1):
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

    def value(key: str, convert):
        try:
            return convert(header[key])
        except KeyError:
            raise CalibrationError(f"no {key} in the header of {path}") from None
        except (ValueError, CsiSenseError) as exc:
            raise CalibrationError(f"bad {key} in the header of {path}: {exc}") from exc

    chanspec = ChannelSpec(value("channel", int), value("bandwidth_mhz", int))
    n_rx, n_sub = value("n_rx", int), value("n_sub", int)
    geom = value("geometry", parse_geometry)
    if len(rows) != n_rx or any(len(row) != n_sub for row in rows):
        raise CalibrationError(
            f"calibration matrix is not the {n_rx} rows of {n_sub} values the header says"
        )
    if geom.n_antennas != n_rx:
        raise CalibrationError(f"geometry in {path} lists {geom.n_antennas} antennas "
                               f"for {n_rx} rows")
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


def _fit_common_slopes(ratios: np.ndarray, unit: np.ndarray) -> np.ndarray:
    """Best-fit linear phase slope (rad/Hz) across subcarriers, one per frame.

    ratios is (frames, n_rx, n_sub).  Uses only the adjacent subcarrier
    pairs that `unit` marks as sitting at the base spacing (np.diff of the
    frequencies), summed over antennas, so pilot/DC gaps never alias the
    estimate.  A frame whose sum is exactly 0 gets slope 0.

    Each frame's products are laid out subcarrier-major, antennas
    fastest, and summed as one contiguous run: the order in which the
    fit of a single (n_rx, n_sub) frame has always added them.  The
    factors are named before they multiply: numpy computes `x * temp`
    for a temporary over 256 KiB as `temp * x`, and a fused complex
    multiply is not bitwise commutative.
    """
    pairs = np.flatnonzero(unit)
    by_subcarrier = np.ascontiguousarray(ratios.transpose(0, 2, 1))
    upper = np.take(by_subcarrier, pairs + 1, axis=1)
    lower = np.conj(np.take(by_subcarrier, pairs, axis=1))
    z = np.sum(upper * lower, axis=(1, 2))
    return np.where(z == 0, 0.0, np.angle(z) / SUBCARRIER_SPACING_HZ)
