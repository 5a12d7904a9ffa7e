"""Bearing estimation from calibrated CSI frames.

Estimators:

* `bartlett_profile` -- bearing x relative-distance likelihood grid; the
  cheap real-time option and the source of the profile visualizations.
* `music_spectrum` -- subspace pseudospectrum over bearing only, from the
  antenna covariance averaged across subcarriers and frames.
* `spotfi_estimate` -- one frame's strongest (bearing, delay) paths from a
  joint pseudospectrum via 2-D MUSIC on spatially smoothed
  antenna/subcarrier sub-arrays (uniform linear arrays only); the stream
  estimator evaluates the same pseudospectrum over a window's frames.

A stream of frames gets one bearing per frame from the estimator's
output over its last `window` frames on its current channel: Bartlett
averages their profiles, MUSIC and SpotFi stack their snapshots into one
covariance.  `bearing_csi_estimator` is the one estimator of such a
stream: it owns the window and takes the stream a block at a time, one
csi array of frames that share a channel and an antenna count (the CLI's
`codec.FrameBlock` after calibration; a single frame is a block of one).
The window restarts when the channel changes, as each channel has its
own calibration, and a refused block leaves it as it was.  A frame's
bearing does not depend on where the blocks are cut.  MUSIC solves a
block's windows as stacks: one matmul for their Gram matrices, one
`np.linalg.eigh` over the stack (`core._dense_eigenpairs` takes a
leading stack axis) and one noise projection, each acting on every
window as it would on that window alone, so every bearing and strength
is `music_spectrum`'s bit for bit.  Bartlett averages in Gram-term
space: a profile is linear in its frame's n_rx^2 x n_dist Gram terms, so
the window's sum of max-normalized profiles is the Gram kernel times the
sum of the frames' terms, each over its profile's peak.  Only the
largest cell's bearing is needed, and for unit-modulus steering
Cauchy-Schwarz bounds a range row's cells by n_rx sum_i |m_id|^2, m the
frame's range product.  So a bounded search (`_peak_search`) evaluates
rows in falling bound order, four at a time, until the next bound falls
below the best cell.  Where one path dominates, the bound is tight and
each search stops after its first four rows: a frame then costs its
range product and Gram terms, its window's sum of terms, and four rows
of kernel products for its own peak and four for its window's, where a
full grid takes 121 each.  Where paths are of equal strength or the SNR
is low, searches take more rounds, up to every row.  It picks what the
full grid picks, bit for bit: the bounds carry a margin far above
rounding, and every product holds two rows or more, which the BLAS is
taken to round row by row as it rounds the full grid (`_peak_search`
says where that was checked).  No profile is kept or averaged, and the
bearings equal those of `average_profiles` and `estimate_bearing` up to
rounding.  SpotFi takes a block's frames one by one.  Every estimator
picks the bearing by `estimate_bearing`'s rule: the curve's argmax, ties
to the smallest bearing index.  On a uniform linear array a bearing and
its mirror across the array axis agree only to rounding: their steering
rows, from sin(theta) and sin(180 deg - theta), differ in the last bits.
So rounding, not the tie rule, picks between them.

Each estimator reads transmit antenna 0.

All estimators are invariant to a global unit-phase factor on the input.
Only MUSIC, which estimates bearing alone, is also blind to a
per-subcarrier phase common to all antennas -- the part of the
calibration the pipeline cannot observe.  Bartlett's range axis and
SpotFi's subcarrier smoothing are not: both need a clean phase across
subcarriers to separate coherent paths.

`triangulate` turns bearings taken from known sensor poses into a
least-squares position fix for the localization case studies.

Grid kernels that depend only on the geometry, the channel and the grids
are built once per (geometry, channel, grid) by small private caches and
handed out read-only, so a stream of frames pays for them once.  Every
estimator steers in bearing with one kernel, `_steering_kernel`
(`core.steering_vector`, the formula synthesis and calibration use,
over the whole array): MUSIC projects it onto the conjugated noise
subspace, and the real Gram kernel (`_gram_kernel_t`) is formed from it,
over the whole array for Bartlett and over its first n_ant_sub antennas,
SpotFi's sub-array.  The other caches are Bartlett's subcarrier x
distance range phasors (`_range_phasors`) and SpotFi's subcarrier
interpolation grids and hole indices (`_subcarrier_grid`,
`_subcarrier_holes`) and conjugated sub-array delay steering
(`_delay_steering`).  Each contraction runs in the order that meets the
bearing grid last, over the antenna axis (the smallest) alone.  Bartlett
multiplies the range phasors into the n_rx x n_sub CSI, takes the n_rx^2
real products of the resulting antenna rows at each distance, and gets
the power at every bearing from one real matrix product with its Gram
kernel, with no complex bearing x distance array and no modulus.  SpotFi
does the same with its signal eigenvectors: it multiplies the delay
steering into each one's n_ant_sub x n_sub_sub block (so the long
subcarrier axis is summed once per frame, not once per bearing), sums
the blocks' Gram terms over the vectors, and gets the signal power from
one real product with the sub-array's Gram kernel.  The stream
estimator maps only each bearing's largest signal power to the
pseudospectrum, a map that never decreases; `spotfi_estimate` maps the
whole grid.

SpotFi needs only the n_sources leading eigenvectors of its smoothed
covariance (244 x 244 at 80 MHz).  It takes them from the numpy-only
eigensolver in `core`, which the calibration shares: a block Krylov
solve from products with the snapshot matrix, which owns its dense
fallback for a subspace that does not separate from the rest of the
spectrum (more sources asked for than the frame has paths).
"""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .codec import format_mac
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
    _dense_eigenpairs,
    _leading_eigenpairs,
    _strictly_increasing,
    steering_vector,
    subcarrier_indices,
    subcarrier_frequencies,
    wavelength,
    wrap_angle,
)

ALGORITHMS = ("bartlett", "music", "spotfi")
# MUSIC's floor on ||E_n^H s(theta)||^2, which keeps its reciprocal finite
_TINY = np.finfo(float).tiny
# The most bytes one MUSIC stack of `bearing_csi_estimator` may hold in
# window snapshots and noise projections; the projections dominate at window 1
_MUSIC_STACK_BYTES = 1 << 18
# The most frames one bearing may average.  MUSIC and SpotFi stack every
# window frame's snapshots; SpotFi's smoothed sub-arrays take ~1.5 MB a
# frame at 80 MHz, so its window holds ~1.5 GB at this bound.
MAX_WINDOW = 1024
# The most bearing x distance cells the grids may hold.  A profile and
# SpotFi's pseudospectrum take 8 bytes a cell; 2^22 cells, ~100x the
# default grids, keep each under ~35 MB.
MAX_GRID_CELLS = 1 << 22
# Bartlett's peak search (`_peak_search`): the range rows each round takes;
# the frames or windows one array operation takes at a time, which keeps
# each temporary near 100 KB; the share and the floor a row's bound is
# inflated by, far above the ~1e-14 rounding of its products and the
# subnormal rounding of its terms; and the bound above which the Gram
# terms could overflow
_SEARCH_ROWS = 4
_BATCH = 8
_BOUND_MARGIN = 1e-9
_BOUND_FLOOR = 1e-300
_BOUND_LIMIT = 1e300


class UnsupportedGeometryError(CsiSenseError):
    """The estimator requires a geometry the given array does not have."""


def build_grids(
    theta_min_deg: float = -179.0,
    theta_max_deg: float = 180.0,
    theta_step_deg: float = 1.0,
    dist_max_m: float = 30.0,
    dist_step_m: float = 0.25,
) -> tuple[np.ndarray, np.ndarray]:
    """Bearing grid (radians) and relative path-length grid (meters), end points included.

    By default 360 bearings over (-pi, pi] and 121 path lengths, 0 to 30 m.
    """
    if not (theta_step_deg > 0 and dist_step_m > 0):
        raise ConfigurationError("theta_step_deg and dist_step_m must be positive")
    n_theta = _arange_length(theta_min_deg, theta_max_deg + 1e-9, theta_step_deg)
    n_dist = _arange_length(0.0, dist_max_m + 1e-9, dist_step_m)
    _check_grid_cells(n_theta, n_dist)
    theta = np.radians(np.arange(theta_min_deg, theta_max_deg + 1e-9, theta_step_deg))
    return theta, np.arange(0.0, dist_max_m + 1e-9, dist_step_m)


def _check_grid_cells(n_theta: float, n_dist: float) -> None:
    if n_theta * n_dist > MAX_GRID_CELLS:
        raise ConfigurationError(f"the grids hold {n_theta:.4g} bearings x {n_dist:.4g} "
                                 f"distances; at most {MAX_GRID_CELLS} cells are allowed")


def _arange_length(start: float, stop: float, step: float) -> float:
    """How many points np.arange(start, stop, step) makes, counted without
    making them: inf if too many to count, and 1 for none (`AoaConfig`
    refuses an empty grid)."""
    span = (float(stop) - float(start)) / float(step)
    return float(max(math.ceil(span), 1)) if math.isfinite(span) else math.inf


@dataclass(eq=False)
class AoaConfig:
    """Processing parameters: grids, algorithm selection, averaging."""

    theta_grid: np.ndarray = field(default_factory=lambda: build_grids()[0])
    dist_grid: np.ndarray = field(default_factory=lambda: build_grids()[1])
    algorithm: str = "bartlett"
    smoothing: tuple[int, int] | None = None  # (n_ant_sub, n_sub_sub); None = auto
    window: int = 1  # frames per bearing (bartlett: profiles, music and spotfi: snapshots)
    n_sources: int = 1

    def __post_init__(self):
        self.theta_grid = np.asarray(self.theta_grid, dtype=np.float64)
        self.dist_grid = np.asarray(self.dist_grid, dtype=np.float64)
        if self.theta_grid.size == 0 or not _strictly_increasing(self.theta_grid):
            raise ConfigurationError("theta grid must be non-empty and increasing")
        if self.dist_grid.size == 0 or not _strictly_increasing(self.dist_grid):
            raise ConfigurationError("distance grid must be non-empty and increasing")
        _check_grid_cells(self.theta_grid.size, self.dist_grid.size)
        if self.algorithm not in ALGORITHMS:
            raise ConfigurationError(f"unknown algorithm {self.algorithm!r}")
        self.window = _check_averaging_window(self.window)
        self.n_sources = _integer("source count", self.n_sources)
        if self.n_sources < 1:
            raise ConfigurationError("source count must be >= 1")


def _check_averaging_window(window: int) -> int:
    """The window as an int; refuse one that is not an integer 1 to `MAX_WINDOW` frames."""
    window = _integer("averaging window", window)
    if not 1 <= window <= MAX_WINDOW:
        raise ConfigurationError(f"averaging window must be 1 to {MAX_WINDOW} frames, got {window}")
    return window


def _integer(name: str, value) -> int:
    """`value` as an int, through operator.index: a NumPy integer will do, a float will not."""
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigurationError(f"{name} must be an integer, got {value!r}") from None


class PathEstimate(NamedTuple):
    theta: float  # radians
    tau: float  # seconds
    power: float


def bartlett_profile(
    frame: CsiFrame,
    geom: ArrayGeometry,
    cfg: AoaConfig,
) -> Profile2D:
    """Bearing-range likelihood P(theta, d), normalized to max 1.

    P(theta, d) = |sum_i sum_j csi[i][j] conj(s_i(theta))
                   exp(+j 2 pi f_j d / c)|^2

    Peaks sit at each path's (bearing, c * delay); the range axis is
    relative path length with an arbitrary common offset.

    With m = csi @ R, R the n_sub x n_dist range phasors
    exp(+j 2 pi f_j d / c), the power is a real Gram form in the antennas:

        P(theta, d) = sum_i |a_i|^2 |m_id|^2
                      + sum_{i<j} 2 Re(conj(a_i) a_j m_id conj(m_jd))

    with a = s(theta).  Its n_rx^2 real coefficients per bearing (the
    Gram kernel) and R come from caches keyed on the geometry, channel
    and grids, so a frame costs the range transform, the n_rx^2 real
    products of m, and one real (n_dist x n_rx^2) @ (n_rx^2 x n_theta)
    matrix product: no complex bearing x distance array, no modulus.
    """
    _check_frame(frame.n_rx, geom)
    terms = _range_gram_terms(frame.csi[:, 0, :],
                              _range_phasors(frame.chanspec, _grid_key(cfg.dist_grid)))
    kernel = _gram_kernel_t(_grid_key(geom.positions), float(wavelength(frame.chanspec)),
                            _grid_key(cfg.theta_grid))
    power = (terms.T @ kernel).T
    # rounding can leave a null cell a few ulps below zero
    if power.min() < 0:
        np.maximum(power, 0.0, out=power)
    peak = power.max()
    if peak > 0:
        np.divide(power, peak, out=power)
    return Profile2D(values=power, theta_grid=cfg.theta_grid, dist_grid=cfg.dist_grid)


def _range_gram_terms(snap: np.ndarray, phasors: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
    """`_gram_terms` of m = snap @ R, snap (..., n_rx, n_sub), R
    `_range_phasors`: (..., n_rx^2, n_dist), into `out` if given.  Each
    snap's m is rounded as its own product."""
    # complex snap @ R as one real product over the interleaved real/imaginary parts
    m = (snap.astype(np.complex128).view(np.float64) @ phasors).view(np.complex128)
    return _gram_terms(m, np.conj(m), out)


def music_spectrum(
    frames: Sequence[CsiFrame],
    geom: ArrayGeometry,
    cfg: AoaConfig,
) -> np.ndarray:
    """MUSIC pseudospectrum 1 / ||E_n^H s(theta)||^2 over the bearing grid.

    The spatial covariance averages per-subcarrier antenna vectors
    across subcarriers and frames; the noise subspace holds the
    n_antennas - n_sources smallest eigenvectors (`core._dense_eigenpairs`).
    """
    _check_window(frames, geom)
    _check_music_sources(geom, cfg)
    snapshots = np.concatenate([f.csi[:, 0, :].astype(np.complex128) for f in frames], axis=1)
    return _music_spectra(snapshots, geom, frames[0].chanspec, cfg)


def _check_music_sources(geom: ArrayGeometry, cfg: AoaConfig) -> None:
    if cfg.n_sources >= geom.n_antennas:
        raise ConfigurationError(
            f"{cfg.n_sources} sources leave no noise subspace for {geom.n_antennas} antennas"
        )


def _music_spectra(snapshots: np.ndarray, geom: ArrayGeometry, chanspec: ChannelSpec,
                   cfg: AoaConfig) -> np.ndarray:
    """MUSIC pseudospectra of snapshot matrices stacked on leading axes.

    snapshots (..., n_rx, n) gives (..., n_theta).  Every step acts on
    each matrix of the stack as it would on that matrix alone (one Gram
    product, `eigh` and noise projection each), so a stack of one is
    `music_spectrum` bit for bit.
    """
    n_rx = geom.n_antennas
    noise = _dense_eigenpairs(snapshots, n_rx)[1][..., : n_rx - cfg.n_sources]
    a = _steering_kernel(_grid_key(geom.positions), float(wavelength(chanspec)),
                         _grid_key(cfg.theta_grid))
    # |s^H e| = |s^T conj(e)|: the conjugate goes on the few noise columns
    power = np.abs(a @ np.conj(noise))
    np.square(power, out=power)
    # the noise columns summed left to right, the order of power.sum(axis=-1),
    # which reduces a last axis this short several times slower
    denom = power[..., 0].copy()
    for j in range(1, power.shape[-1]):
        denom += power[..., j]
    np.maximum(denom, _TINY, out=denom)
    return np.divide(1.0, denom, out=denom)


def _music_stream_spectra(history: Sequence[np.ndarray], chanspec: ChannelSpec,
                          frames: np.ndarray, geom: ArrayGeometry,
                          cfg: AoaConfig) -> np.ndarray:
    """MUSIC over consecutive frames of one channel, each frame over its window.

    `frames` holds the frames' (n_rx, n_sub) snapshots of transmit antenna
    0, (n, n_rx, n_sub).  A frame's window is it and the cfg.window - 1
    frames before it, from `history` (the stream's snapshots before
    `frames`, oldest first) on; its snapshots are the ones
    `music_spectrum` concatenates, so each row is `music_spectrum` of
    that window bit for bit.  Full windows are solved in stacks of at
    most _MUSIC_STACK_BYTES.  Window 1 only indexes the frames: building
    the same view with sliding_window_view costs tens of us a call, 11%
    of ingest-music-sq20's `bearing` step on a 2-core host.  Returns
    (n, n_theta).
    """
    n_rx, window = geom.n_antennas, cfg.window
    if history:
        snaps = np.concatenate([np.array(history), frames]).astype(np.complex128)
    else:
        snaps = frames.astype(np.complex128)
    n_sub = snaps.shape[-1]
    out = np.empty((len(frames), cfg.theta_grid.size))
    # the stream's first frames have fewer than `window` frames to stack
    partial = min(max(window - 1 - len(history), 0), len(frames))
    for i in range(partial):
        shorter = snaps[: len(history) + i + 1]
        out[i] = _music_spectra(shorter.transpose(1, 0, 2).reshape(n_rx, -1), geom, chanspec,
                                cfg)
    if partial == len(frames):
        return out
    # (n, n_rx, window, n_sub): frame-major columns, as concatenated
    tail = snaps[len(history) + partial - (window - 1):]
    full = (tail[:, :, None, :] if window == 1 else np.lib.stride_tricks.sliding_window_view(
        tail, window, axis=0).transpose(0, 1, 3, 2))
    # per frame: complex snapshots; complex projections and their moduli
    frame_bytes = 16 * n_rx * window * n_sub + 24 * cfg.theta_grid.size * (n_rx - cfg.n_sources)
    step = max(1, _MUSIC_STACK_BYTES // frame_bytes)
    for lo in range(0, len(full), step):
        stack = full[lo: lo + step]
        out[partial + lo: partial + lo + len(stack)] = _music_spectra(
            stack.reshape(len(stack), n_rx, window * n_sub), geom, chanspec, cfg)
    return out


def _bartlett_stream_picks(window: deque, chanspec: ChannelSpec, frames: np.ndarray,
                           geom: ArrayGeometry, cfg: AoaConfig) -> tuple[np.ndarray, np.ndarray]:
    """Bartlett over consecutive frames, each over its window: each frame's
    bearing index and strength.

    `frames` holds the frames' (n_rx, n_sub) snapshots of transmit antenna
    0, (n, n_rx, n_sub), all on `chanspec`.  A frame's (n_dist, n_theta)
    power grid is T.T @ K, with K the Gram kernel (`_gram_kernel_t`) and T
    its `_range_gram_terms`, so a window's profiles, each over its frame's
    peak p, sum to (sum T / p).T @ K, the T / p added oldest to newest.  A
    frame whose peak is not positive enters its windows as zeros.  The
    bearing is the largest cell's, ties to the smallest bearing index, with
    strength 1, or index 0 and strength 0 for a grid whose peak is not
    positive; `_peak_search` finds each peak from a few rows of the grid.

    `window` holds the stream's last cfg.window - 1 frames on `chanspec`,
    oldest first and zeros before the stream's first, each as its T / p
    and its `_row_reach` over p, and takes in `frames`.  The kernel
    products are stacked a frame or a window to an item, which numpy
    rounds as it rounds that item alone, so no pick depends on how the
    stream is cut into blocks.
    """
    n_rx, depth, n = geom.n_antennas, cfg.window, len(frames)
    past = depth - 1
    kernel = _gram_kernel_t(_grid_key(geom.positions), float(wavelength(chanspec)),
                            _grid_key(cfg.theta_grid))
    phasors = _range_phasors(chanspec, _grid_key(cfg.dist_grid))
    while len(window) < past:
        window.appendleft((np.zeros((n_rx * n_rx, cfg.dist_grid.size)),
                           np.zeros(cfg.dist_grid.size)))
    # the window's T / p and bounds over p, then each frame's T and bounds
    terms = np.empty((past + n, n_rx * n_rx, cfg.dist_grid.size))
    reach = np.empty((past + n, cfg.dist_grid.size))
    if past:
        np.stack([scaled for scaled, _ in window], out=terms[:past])
        np.stack([bound for _, bound in window], out=reach[:past])
        window.clear()
    for lo in range(0, n, _BATCH):
        _range_gram_terms(frames[lo: lo + _BATCH], phasors, terms[past + lo: past + lo + _BATCH])
    block = terms[past:]
    reach[past:] = _row_reach(block, n_rx)
    slots = np.arange(n_rx * n_rx)[:, None]

    def curves(items: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # `_peak_search`'s curves from the Gram terms in `block`, the
        # frames' and then, summed in place, the windows'
        out = np.empty((len(items), kernel.shape[1]))
        for lo in range(0, len(items), _BATCH):
            at = slice(lo, lo + _BATCH)
            picked = block[items[at, None, None], slots, rows[at, None, :]]
            np.max(picked.transpose(0, 2, 1) @ kernel, axis=1, out=out[at])
        return out

    k, peak = _peak_search(reach[past:], curves)
    if past:
        kept = peak > 0
        scale = np.where(kept, peak, 1.0)[:, None]
        block[~kept] = 0.0
        block /= scale[:, :, None]
        reach[past:][~kept] = 0.0
        reach[past:] /= scale
        window.extend(zip(terms[-past:].copy(), reach[-past:].copy()))
        # each window's sum of T / p, oldest first, into its newest frame's
        # slot, the newest windows first and _BATCH at a time: a window
        # reads only slots at or before its own, so none reads a slot
        # already written
        for hi in range(n, 0, -_BATCH):
            lo = max(hi - _BATCH, 0)
            total = terms[lo:hi].copy()
            for j in range(1, depth):
                total += terms[lo + j: hi + j]
            block[lo:hi] = total
        # a window's cells are bounded by the sum of its frames' bounds over their peaks
        sums = np.lib.stride_tricks.sliding_window_view(reach, depth, axis=0)
        k, peak = _peak_search(sums.sum(axis=-1), curves)
    kept = peak > 0
    # the curve's value at its peak over that peak: 1 for a finite peak
    return np.where(kept, k, 0), np.divide(peak, peak, out=np.zeros(len(peak)), where=kept)


def _row_reach(terms: np.ndarray, n_rx: int) -> np.ndarray:
    """A bound on the power grid cells of each range row, for `_gram_terms`
    stacked as (n, n_rx^2, n_dist): (n, n_dist).

    For unit-modulus steering a and the range product m, Cauchy-Schwarz
    gives |a^H m_d|^2 <= n_rx sum_i |m_id|^2, and the first n_rx terms are
    the |m_id|^2.  The bound is inflated by the share _BOUND_MARGIN, far
    above the ~1e-14 rounding of a cell's 16-term product, and by
    _BOUND_FLOOR, far above the rounding of subnormal terms.  A row of zero
    energy, whose Gram terms and cells are all zero, keeps the bound 0.
    """
    energy = terms[:, :n_rx].sum(axis=1)
    bound = n_rx * (1.0 + _BOUND_MARGIN) * energy + _BOUND_FLOOR
    bound[energy == 0] = 0.0
    return bound


def _peak_search(reach: np.ndarray, curves: Callable[[np.ndarray, np.ndarray], np.ndarray]
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The largest cell of each of n Bartlett power grids, from only the
    range rows that can hold it: its smallest bearing index and its value,
    as np.argmax of the per-bearing peaks and np.max of the grid give them.

    `curves(items, rows)` gives, for grids `items` and distance indices
    `rows` (one row of `rows` per item), each grid's per-bearing peak over
    those rows, from one kernel product per grid: (len(items), n_theta).
    `reach` (n, n_dist) bounds each row's cells, rounding included
    (`_row_reach`).  Each round evaluates the next _SEARCH_ROWS rows of
    every grid still pending, in falling bound order, and a grid stops
    once its next bound falls below the best cell found.  A grid whose
    bound is not finite or nears overflow takes every row at once; one
    whose bound is zero throughout is zero.

    The picks are the full grid's bit for bit if the BLAS rounds each row
    of a product of two rows or more as it rounds that row in the full
    grid's product.  That is a property of the BLAS, not of numpy.  It was
    checked with numpy 2.4's bundled OpenBLAS 0.3.31 on its SkylakeX
    (AVX-512) kernels, where a one-row product alone (a matrix-vector
    path) rounds differently; `TestBartlettPeakSearch` fails on a BLAS
    that breaks it.  So no round takes one row: a round that would leave
    one row takes it too, and a 1-row grid is a one-row product on both
    sides.
    """
    n, n_dist = reach.shape
    k = np.zeros(n, dtype=np.intp)
    best = np.zeros(n)
    top = reach.max(axis=1)
    for i in np.flatnonzero(~(top <= _BOUND_LIMIT)):
        curve = curves(np.array([i]), np.arange(n_dist)[None])[0]
        k[i], best[i] = np.argmax(curve), curve.max()
    order = np.argsort(-reach, axis=1, kind="stable")
    pending = np.flatnonzero((top > 0) & (top <= _BOUND_LIMIT))
    best[pending] = -np.inf
    lo = 0
    while pending.size:
        hi = lo + _SEARCH_ROWS if lo + _SEARCH_ROWS < n_dist - 1 else n_dist
        found = curves(pending, order[pending, lo:hi])
        j = np.argmax(found, axis=1)
        value = found[np.arange(pending.size), j]
        better = (value > best[pending]) | ((value == best[pending]) & (j < k[pending]))
        k[pending[better]] = j[better]
        best[pending[better]] = value[better]
        if hi == n_dist:
            break
        lo = hi
        pending = pending[reach[pending, order[pending, lo]] >= best[pending]]
    return k, best


def spotfi_smoothing_dims(n_rx: int, chanspec: ChannelSpec, cfg: AoaConfig) -> tuple[int, int]:
    """Effective sub-array size: configured, or (2, n_cols // 2).

    n_cols is the channel's subcarrier count after interpolation onto the
    full uniform index grid, pilot and DC holes included.  The sub-array
    must fit the array and leave a noise subspace for cfg.n_sources.
    """
    n_cols = _subcarrier_grid(chanspec)[1].size
    dims = cfg.smoothing if cfg.smoothing is not None else (2, n_cols // 2)
    n_ant_sub, n_sub_sub = int(dims[0]), int(dims[1])
    if not 1 <= n_ant_sub <= n_rx or not 1 <= n_sub_sub <= n_cols:
        raise ConfigurationError(
            f"smoothing dims {dims} exceed array dimensions ({n_rx}, {n_cols})"
        )
    if cfg.n_sources >= n_ant_sub * n_sub_sub:
        raise ConfigurationError("source count leaves no noise subspace")
    return n_ant_sub, n_sub_sub


def _spotfi_pseudo(chanspec: ChannelSpec, snaps: Sequence[np.ndarray], geom: ArrayGeometry,
                   cfg: AoaConfig) -> np.ndarray:
    """Smoothed 2-D MUSIC pseudospectrum over (cfg.theta_grid, cfg.dist_grid)
    from a window's (n_rx, n_sub) snapshots of transmit antenna 0, all on
    `chanspec`: (n_theta, n_dist).

    Overlapping sub-arrays of n_ant_sub antennas x n_sub_sub subcarriers
    (stepped by one antenna / one subcarrier) decorrelate coherent
    multipath.  Every frame's sub-arrays are snapshots (columns) of one
    smoothed covariance X X^H / n; its n_sources leading eigenvectors
    (`core._leading_eigenpairs`) span the signal subspace, and the
    pseudospectrum over joint steering s_i(theta) * exp(-j 2 pi f_j tau),
    tau = cfg.dist_grid / c, is 1 / max(dim - s, 1e-9 dim), s the signal
    power in Bartlett's real Gram form (`_spotfi_power`).  The caller
    checks the geometry: a uniform linear array (`_require_ula`) whose
    antenna count the snapshots share.
    """
    power, dim = _spotfi_power(chanspec, snaps, geom, cfg)
    return _spotfi_reciprocal(power, dim).T


def _spotfi_power(chanspec: ChannelSpec, snaps: Sequence[np.ndarray], geom: ArrayGeometry,
                  cfg: AoaConfig) -> tuple[np.ndarray, int]:
    """`_spotfi_pseudo`'s signal power s = ||E_s^H v||^2 at every (distance,
    bearing) cell, (n_dist, n_theta), and the sub-array size dim.

    ||E_n^H v||^2 = dim - s for unit-modulus-element v, so the n_sources
    signal vectors stand in for the dim - n_sources noise ones.  The joint
    steering v = a(theta) (x) sub(tau) is separable: with p_k(d) source
    k's n_ant_sub x n_sub_sub block times the delay steering,
    s = sum_k |a^H p_k|^2, Bartlett's Gram form in the sub-array's
    antennas, so s is one real product of the summed `_gram_terms` of the
    p_k with the sub-array's `_gram_kernel_t`.
    """
    n_ant_sub, n_sub_sub = spotfi_smoothing_dims(geom.n_antennas, chanspec, cfg)
    n_sources = cfg.n_sources
    signal = _spotfi_signal_subspace(chanspec, snaps, n_ant_sub, n_sub_sub, n_sources)
    per_ant = signal.T.reshape(n_sources, n_ant_sub, n_sub_sub) @ _delay_steering(
        n_sub_sub, _grid_key(cfg.dist_grid))
    terms = _gram_terms(per_ant, np.conj(per_ant)).sum(axis=0)
    kernel = _gram_kernel_t(_grid_key(geom.positions), float(wavelength(chanspec)),
                            _grid_key(cfg.theta_grid), n_ant_sub)
    return terms.T @ kernel, n_ant_sub * n_sub_sub


def _spotfi_reciprocal(power: np.ndarray, dim: int) -> np.ndarray:
    """1 / max(dim - s, 1e-9 dim) for each s of `power`, in place.

    Each step rounds monotonically, so the map never decreases: the
    largest of a set of s maps to the largest result, bit for bit.
    """
    np.subtract(dim, power, out=power)
    np.maximum(power, 1e-9 * dim, out=power)
    return np.divide(1.0, power, out=power)


def _spotfi_signal_subspace(chanspec: ChannelSpec, snaps: Sequence[np.ndarray],
                            n_ant_sub: int, n_sub_sub: int, n_sources: int) -> np.ndarray:
    """The leading eigenvectors of the window's smoothed covariance, (dim, n_sources).

    The snapshot matrix lives only inside this call, so it is freed
    before the caller evaluates the grid.
    """
    windows = [np.lib.stride_tricks.sliding_window_view(
        _interpolate_subcarriers(snap, chanspec), (n_ant_sub, n_sub_sub)) for snap in snaps]
    # np.stack copies every frame's sub-arrays once, straight from the
    # sliding views, into a C-ordered block: (n_windows, dim) rows one
    # frame after another, which the reshape below only views.  Left to
    # itself, np.stack keeps the views' stride order and the reshape
    # copies again.
    stacked = np.empty((len(windows), *windows[0].shape), dtype=np.complex128)
    np.stack(windows, out=stacked)
    snapshots = stacked.reshape(-1, n_ant_sub * n_sub_sub).T  # (dim, n_windows * n_frames)
    return _leading_eigenpairs(snapshots, n_sources)[1]


def spotfi_estimate(
    frame: CsiFrame,
    geom: ArrayGeometry,
    cfg: AoaConfig,
) -> list[PathEstimate]:
    """One frame's joint (bearing, delay) paths from its SpotFi
    pseudospectrum (`_spotfi_pseudo`).

    Up to n_sources local maxima of the pseudospectrum are returned,
    strongest first.  Equal powers keep grid order (a stable sort), so
    the first path has the bearing `estimate_bearing` picks from the same
    pseudospectrum.  Delays are relative (the grid is cfg.dist_grid / c).

    Requires a uniform linear array with at least two antennas
    (UnsupportedGeometryError otherwise) whose antenna count the frame has.
    """
    _require_ula(geom)
    _check_frame(frame.n_rx, geom)
    pseudo = _spotfi_pseudo(frame.chanspec, [frame.csi[:, 0, :]], geom, cfg)
    # min and max both propagate NaN, so NaN fails the test as well
    if not (pseudo.min() >= 0 and pseudo.max() < np.inf):
        raise ConfigurationError("profile values must be finite and non-negative")
    tau_grid = cfg.dist_grid / SPEED_OF_LIGHT

    local_max = pseudo == _max_filter3(pseudo)
    peak_idx = np.argwhere(local_max)
    order = np.argsort(-pseudo[local_max], kind="stable")
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


def _interpolate_subcarriers(csi_slice: np.ndarray, chanspec: ChannelSpec) -> np.ndarray:
    """Resample one (n_rx, n_sub) slice onto the full uniform index grid.

    Pilot and DC holes are filled by linear interpolation so that
    adjacent columns are exactly one subcarrier spacing apart -- the
    shift structure spatial smoothing relies on.  The measured columns
    are copied and each hole's real and imaginary parts are
    slope (x - x_j) + f_j from its neighbours j and j + 1, np.interp's
    formula in its order, so the result is a per-row np.interp of each
    part (`_subcarrier_holes` holds the indices), complex128.
    """
    measured, holes, left, offset, span = _subcarrier_holes(chanspec)
    out = np.empty((csi_slice.shape[0], _subcarrier_grid(chanspec)[1].size),
                   dtype=np.complex128)
    out[:, measured] = csi_slice
    lo = csi_slice[:, left].astype(np.complex128, order="C").view(np.float64)
    hi = csi_slice[:, left + 1].astype(np.complex128, order="C").view(np.float64)
    hi -= lo
    hi /= span
    hi *= offset
    hi += lo
    out.view(np.float64)[:, holes] = hi
    return out


def _max_filter3(values: np.ndarray) -> np.ndarray:
    """3 x 3 sliding maximum of a 2-D array, borders replicating the edge."""
    padded = np.pad(values, 1, mode="edge")
    rows = np.maximum(np.maximum(padded[:-2], padded[1:-1]), padded[2:])
    return np.maximum(np.maximum(rows[:, :-2], rows[:, 1:-1]), rows[:, 2:])


def average_profiles(profiles: list[Profile2D], window: int) -> Profile2D:
    """Element-wise mean over the trailing `window` profiles, max-normalized
    (as is for an all-zero window).

    Incoherent (power-domain) averaging: stationary-path peaks reinforce
    while randomly phased reflections average toward their mean level.
    The profiles must share the first one's grids.
    """
    if not profiles:
        raise ConfigurationError("no profiles to average")
    window = _check_averaging_window(window)
    first, *rest = profiles[-window:]
    total = np.array(first.values, dtype=np.float64)
    for profile in rest:
        if not (np.array_equal(profile.theta_grid, first.theta_grid)
                and np.array_equal(profile.dist_grid, first.dist_grid)):
            raise DimensionMismatchError("profiles must share identical grids")
        total += profile.values
    peak = total.max()
    values = total / peak if peak > 0 else total
    return Profile2D(values, profiles[-1].theta_grid, profiles[-1].dist_grid)


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
    estimate: the RSSI floor is applied at ingest, to the frame header
    (`codec.ingest_capture_blocks`, `codec.ingest_stream_blocks`).
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
    k, strength = _pick_bearing(curve)
    return BearingEstimate(
        theta=float(grid[k]),
        strength=float(strength),
        rssi_dbm=rssi_dbm,
        source_mac=source_mac,
        timestamp_ns=timestamp_ns,
    )


def _pick_bearing(curves: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each curve's argmax over the bearing grid (the last axis), ties to the
    smallest index, and the curve's value there."""
    rows = curves.reshape(-1, curves.shape[-1])
    k = np.argmax(rows, axis=1)
    return k.reshape(curves.shape[:-1]), rows[np.arange(len(rows)), k].reshape(curves.shape[:-1])


def bearing_csi_estimator(
        geom: ArrayGeometry,
        cfg: AoaConfig) -> Callable[[ChannelSpec, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Calibrated frames of one stream, a block at a time -> their bearings.

    The returned function takes a block's channel and its csi,
    (frames, n_rx, n_tx, n_sub), all frames on that channel with one
    antenna count, and gives each frame's bearing as its index into
    cfg.theta_grid, picked as `estimate_bearing` picks it, and its
    strength, as arrays.  It owns the averaging window, the stream's last
    cfg.window - 1 frames on its current channel, which a block on another
    channel clears; confine it to one stream.  MUSIC and SpotFi keep those
    frames as views of `csi`, so a block's array must not be written to
    once it has been passed in.  A frame's bearing does not depend on how
    the stream is cut into blocks.  Bartlett picks the largest cell of the
    window's summed profiles, each over its peak, from the summed Gram
    terms (`_bartlett_stream_picks`): a bounded search evaluates only the
    range rows that can hold that cell, and picks what the full grid
    picks, bit for bit.  Where one path dominates, a frame costs its range
    product, its Gram terms and a few rows of kernel products; where none
    does, the search takes more rows, up to all of them.  That is the
    bearing that
    `average_profiles` over the window and `estimate_bearing` pick, up to
    rounding, with the same strength.  MUSIC's curve is its
    pseudospectrum, from the block's windows solved as stacks
    (`_music_stream_spectra`); SpotFi's is the profile's per-bearing peak,
    one frame at a time.

    A block is checked before anything changes: its antenna count against
    the geometry and, for SpotFi, the smoothing against its channel.  A
    refused block raises and leaves the window as it was.  SpotFi's array
    check and MUSIC's source count check run when the estimator is built.
    """
    algorithm = cfg.algorithm
    if algorithm == "music":
        _check_music_sources(geom, cfg)
    if algorithm == "spotfi":
        _require_ula(geom)
    # the window on `current`: snapshots, or Bartlett's Gram terms and bounds over their peaks
    recent: deque = deque(maxlen=cfg.window - 1)
    current = None

    def estimate(chanspec: ChannelSpec, csi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        nonlocal current
        snaps = csi[:, :, 0, :]
        if not len(snaps):
            return np.empty(0, dtype=np.intp), np.empty(0)
        _check_frame(snaps.shape[1], geom)
        if algorithm == "spotfi":
            spotfi_smoothing_dims(geom.n_antennas, chanspec, cfg)
        if chanspec != current:
            recent.clear()
            current = chanspec
        if algorithm == "bartlett":
            return _bartlett_stream_picks(recent, chanspec, snaps, geom, cfg)
        if algorithm == "music":
            curves = _music_stream_spectra(recent, chanspec, snaps, geom, cfg)
            recent.extend(snaps)
            return _pick_bearing(curves)
        # each bearing's largest signal power, then the pseudospectrum's
        # map of only those: it never decreases, so each is the bearing's
        # largest pseudospectrum cell bit for bit
        peaks = np.empty((len(snaps), cfg.theta_grid.size))
        for i, snap in enumerate(snaps):
            power, dim = _spotfi_power(chanspec, [*recent, snap], geom, cfg)
            np.max(power, axis=0, out=peaks[i])
            del power  # freed before the next frame's snapshot matrix is built
            recent.append(snap)
        return _pick_bearing(_spotfi_reciprocal(peaks, dim))

    return estimate


def triangulate(
    observations: list[tuple[Pose2D, float]],
) -> tuple[np.ndarray, float]:
    """Least-squares point fix from (sensor pose, local bearing) pairs.

    Each bearing becomes a world-frame ray from the sensor position; the
    returned point minimizes the sum of squared perpendicular distances
    to all rays.  Also returns the RMS perpendicular residual.

    Raises DegenerateGeometryError for fewer than two rays or an
    all-parallel bundle, and ConfigurationError, naming the observation's
    index, for a bearing or pose field that is NaN or infinite.
    """
    if len(observations) < 2:
        raise DegenerateGeometryError("need at least two bearing observations")
    normals = np.empty((len(observations), 2))
    offsets = np.empty(len(observations))
    for k, (pose, bearing) in enumerate(observations):
        if not all(map(math.isfinite, (bearing, pose.x, pose.y, pose.theta))):
            raise ConfigurationError(f"observation {k}: bearing and pose must be finite, "
                                     f"got bearing {bearing} at {pose}")
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


BEARINGS_CSV_HEADER = "timestamp_ns,source_mac,theta_deg,strength,rssi_dbm\n"


def bearing_rows(timestamps_ns: Sequence[int], source_macs: Sequence[bytes],
                 theta_deg: np.ndarray, strength: Sequence[float],
                 rssi_dbm: Sequence[float]) -> list[str]:
    """Bearings CSV rows, each with its newline, from per-frame columns.

    theta_deg is each bearing in degrees, from the radians wrapped to
    (-pi, pi] as `BearingEstimate` wraps them: `np.degrees(wrap_angle(..))`.
    """
    return [f"{ts},{format_mac(mac)},{deg:.4f},{power:.6g},{rssi:.2f}\n"
            for ts, mac, deg, power, rssi in zip(timestamps_ns, source_macs,
                                                 np.asarray(theta_deg).tolist(),
                                                 np.asarray(strength).tolist(), rssi_dbm)]


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


# Kernels are keyed on the float64 bytes of their grids and antenna
# positions (arrays are unhashable) and returned read-only, since every
# caller shares the cached array.  A few entries cover every (geometry,
# channel, grid) a process alternates between.
def _grid_key(grid: np.ndarray) -> bytes:
    return np.asarray(grid, dtype=np.float64).tobytes()


@lru_cache(maxsize=8)
def _steering_kernel(positions_bytes: bytes, lambda_m: float, theta_bytes: bytes) -> np.ndarray:
    """Bearing steering `core.steering_vector`, shape (n_theta, n_antennas)."""
    positions = np.frombuffer(positions_bytes, dtype=np.float64).reshape(-1, 2)
    kernel = steering_vector(np.frombuffer(theta_bytes, dtype=np.float64),
                             ArrayGeometry(positions), lambda_m)
    kernel.flags.writeable = False
    return kernel


@lru_cache(maxsize=8)
def _gram_kernel_t(positions_bytes: bytes, lambda_m: float, theta_bytes: bytes,
                   n_ant: int | None = None) -> np.ndarray:
    """The real Gram kernel of the first n_ant antennas (all by default),
    shape (n_ant^2, n_theta), C-ordered.

    Column theta holds the `_gram_terms` of conj(a_i) a_j, a = s(theta)
    (`_steering_kernel`'s first n_ant columns), each times its weight in
    the Gram form: |a_i|^2, then 2 Re(conj(a_i) a_j) and
    -2 Im(conj(a_i) a_j) for each pair i < j.  Bartlett's and SpotFi's
    products put the bearings along rows: terms.T @ kernel.
    """
    steering = _steering_kernel(positions_bytes, lambda_m, theta_bytes)
    a = np.ascontiguousarray(steering[:, :n_ant].T)
    n_rx = a.shape[0]
    n_pairs = n_rx * (n_rx - 1) // 2
    weights = np.repeat([1.0, 2.0, -2.0], [n_rx, n_pairs, n_pairs])
    kernel = weights[:, None] * _gram_terms(np.conj(a), a)
    kernel.flags.writeable = False
    return kernel


def _gram_terms(x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The real rows of the antenna outer product x_i y_j that the Gram form uses.

    From x and y of shape (..., n_rx, k) stack Re x_i y_i for each antenna,
    then Re x_i y_j and Im x_i y_j for each pair i < j: shape
    (..., n_rx^2, k), into `out` if given.  Only those n_rx (n_rx + 1) / 2
    products are formed.
    """
    n_rx = x.shape[-2]
    rows, cols = _gram_rows(n_rx)
    product = x[..., rows, :]
    product *= y[..., cols, :]
    return np.concatenate([product.real, product[..., n_rx:, :].imag], axis=-2, out=out)


@lru_cache(maxsize=4)
def _gram_rows(n_rx: int) -> tuple[np.ndarray, np.ndarray]:
    """`_gram_terms`' antenna pairs (i, j): each (i, i), then each i < j."""
    i, j = np.triu_indices(n_rx, 1)
    rows = np.concatenate([np.arange(n_rx), i])
    cols = np.concatenate([np.arange(n_rx), j])
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


@lru_cache(maxsize=8)
def _range_phasors(chanspec: ChannelSpec, dist_bytes: bytes) -> np.ndarray:
    """Bartlett range phasors R = exp(+j 2 pi f_j d / c) as a real matrix,
    shape (2 n_sub, 2 n_dist).

    Rows and columns interleave real and imaginary parts, so the float64
    view of a complex (n_rx, n_sub) CSI block times this matrix is the
    float64 view of the complex product csi @ R.
    """
    dist_grid = np.frombuffer(dist_bytes, dtype=np.float64)
    freqs = subcarrier_frequencies(chanspec)
    phasors = np.exp(2j * np.pi * np.outer(freqs, dist_grid) / SPEED_OF_LIGHT)
    kernel = np.empty((2 * freqs.size, 2 * dist_grid.size))
    kernel[0::2, 0::2] = phasors.real
    kernel[1::2, 0::2] = -phasors.imag
    kernel[0::2, 1::2] = phasors.imag
    kernel[1::2, 1::2] = phasors.real
    kernel.flags.writeable = False
    return kernel


@lru_cache(maxsize=8)
def _subcarrier_grid(chanspec: ChannelSpec) -> tuple[np.ndarray, np.ndarray]:
    """SpotFi's interpolation grids: the measured subcarrier indices and the
    full uniform index range they span, both float64."""
    idx = subcarrier_indices(chanspec).astype(np.float64)
    full = np.arange(idx[0], idx[-1] + 1)
    idx.flags.writeable = False
    full.flags.writeable = False
    return idx, full


@lru_cache(maxsize=8)
def _subcarrier_holes(chanspec: ChannelSpec) -> tuple[np.ndarray, ...]:
    """`_interpolate_subcarriers`' indices: each measured subcarrier's column
    on the full grid; and on the float64 view of a complex row, where each
    hole's real and imaginary parts go, its left neighbour j's column in
    the measured slice, x - x_j and x_{j+1} - x_j, one entry per part."""
    idx, full = _subcarrier_grid(chanspec)
    measured = (idx - idx[0]).astype(np.intp)
    # a boolean mask, as np.isin and np.setdiff1d import numpy.ma on first use
    is_hole = np.ones(full.size, dtype=bool)
    is_hole[measured] = False
    hole = np.flatnonzero(is_hole)
    left = np.searchsorted(idx, full[hole], side="right") - 1
    parts = (2 * hole[:, None] + [0, 1]).ravel()
    plan = (measured, parts, left, np.repeat(full[hole] - idx[left], 2),
            np.repeat(idx[left + 1] - idx[left], 2))
    for array in plan:
        array.flags.writeable = False
    return plan


@lru_cache(maxsize=8)
def _delay_steering(n_sub_sub: int, dist_bytes: bytes) -> np.ndarray:
    """SpotFi sub-array delay steering, conjugated as SpotFi uses it:
    conj(exp(-j 2 pi k df tau)), shape (n_sub_sub, n_dist)."""
    tau_grid = np.frombuffer(dist_bytes, dtype=np.float64) / SPEED_OF_LIGHT
    kernel = np.conj(np.exp(-2j * np.pi * SUBCARRIER_SPACING_HZ
                            * np.outer(np.arange(n_sub_sub), tau_grid)))
    kernel.flags.writeable = False
    return kernel


def _check_frame(n_rx: int, geom: ArrayGeometry) -> None:
    if n_rx != geom.n_antennas:
        raise DimensionMismatchError(
            f"frame has {n_rx} antennas, geometry has {geom.n_antennas}"
        )


def _check_window(frames: Sequence[CsiFrame], geom: ArrayGeometry) -> None:
    """Refuse an empty window, one that mixes channels, or a frame the geometry does not fit."""
    if not frames:
        raise ConfigurationError("need at least one frame")
    for frame in frames:
        _check_frame(frame.n_rx, geom)
        if frame.chanspec != frames[0].chanspec:
            raise DimensionMismatchError("window frames must share one channel")


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
