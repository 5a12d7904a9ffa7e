import dataclasses
import itertools
import os
import re
import subprocess
import sys
from collections import deque
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from csisense import (
    ArrayGeometry,
    ChannelSpec,
    ConfigurationError,
    CsiFrame,
    DegenerateGeometryError,
    DimensionMismatchError,
    PathComponent,
    Pose2D,
    Profile2D,
    BearingEstimate,
    ground_truth_bearing,
    steering_vector,
    subcarrier_frequencies,
    subcarrier_indices,
    synth_frame,
    wavelength,
    wrap_angle,
)
from csisense import aoa
from csisense.aoa import (
    AoaConfig,
    UnsupportedGeometryError,
    average_profiles,
    bartlett_profile,
    bearing_csi_estimator,
    build_grids,
    estimate_bearing,
    music_spectrum,
    spotfi_estimate,
    triangulate,
    write_profile_pgm,
)
from csisense.core import (
    SPEED_OF_LIGHT,
    SUBCARRIER_SPACING_HZ,
    _dense_eigenpairs,
)
from helpers import read_profile_pgm, spotfi_pseudo

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def cfg():
    return AoaConfig()


def single_path_frame(geom, chan, theta, tau=10e-9, snr_db=None, seed=None):
    return synth_frame([PathComponent(aoa=theta, delay_s=tau)], geom, chan,
                       snr_db=snr_db, rng_seed=seed)


def estimate_runs(estimate, frames, cfg):
    """`estimate`, a `bearing_csi_estimator`, on `frames` cut into runs of one
    channel and antenna count, as `codec.FrameBlock` cuts them: their bearings."""
    estimates = []
    runs = itertools.groupby(frames, key=lambda frame: (frame.chanspec, frame.csi.shape))
    for (chanspec, _), run in runs:
        run = list(run)
        peaks, strengths = estimate(chanspec, np.stack([frame.csi for frame in run]))
        estimates += [BearingEstimate(theta=float(cfg.theta_grid[k]), strength=float(strength),
                                      rssi_dbm=frame.rssi_dbm, source_mac=frame.source_mac,
                                      timestamp_ns=frame.timestamp_ns)
                      for k, strength, frame in zip(peaks, strengths, run)]
    return estimates


class TestAoaConfig:
    @pytest.mark.parametrize("grid", [[0.0, np.nan, 1.0], [np.nan], [0.0, np.inf], [],
                                      [1.0, 0.0]])
    def test_rejects_an_empty_non_finite_or_falling_grid(self, grid):
        with pytest.raises(ConfigurationError, match="theta grid must be non-empty and "):
            AoaConfig(theta_grid=grid)
        with pytest.raises(ConfigurationError, match="distance grid must be non-empty and "):
            AoaConfig(dist_grid=grid)

    def test_window_bounded(self):
        assert AoaConfig(window=aoa.MAX_WINDOW).window == aoa.MAX_WINDOW
        with pytest.raises(ConfigurationError, match="averaging window must be 1 to "):
            AoaConfig(window=aoa.MAX_WINDOW + 1)

    @pytest.mark.parametrize("kwargs", [{"theta_step_deg": 1e-300}, {"theta_max_deg": 1e300},
                                        {"dist_max_m": 1e300},
                                        {"theta_min_deg": -1e308, "theta_max_deg": 1e308},
                                        {"theta_step_deg": 0.01, "dist_step_m": 0.001}])
    def test_grid_cells_bounded_before_they_are_made(self, kwargs):
        with pytest.raises(ConfigurationError, match="cells are allowed"):
            build_grids(**kwargs)

    def test_grid_at_the_bound_is_made(self):
        # 1024 bearings x 4096 distances: MAX_GRID_CELLS exactly
        theta, dist = build_grids(theta_min_deg=0.0, theta_max_deg=1023.0,
                                  dist_max_m=4095.0, dist_step_m=1.0)
        assert theta.size * dist.size == aoa.MAX_GRID_CELLS


    @pytest.mark.parametrize("window", [2.5, np.float64(4.0), "4", np.nan],
                             ids=["float", "float64", "str", "nan"])
    def test_window_must_be_an_integer(self, window):
        message = f"^averaging window must be an integer, got {re.escape(repr(window))}$"
        with pytest.raises(ConfigurationError, match=message):
            AoaConfig(window=window)
        profile = Profile2D(np.ones((3, 2)), np.arange(3.0), np.arange(2.0))
        with pytest.raises(ConfigurationError, match=message):
            average_profiles([profile, profile], window)

    @pytest.mark.parametrize("algorithm", ["music", "spotfi"])
    def test_source_count_must_be_an_integer(self, algorithm):
        with pytest.raises(ConfigurationError,
                           match="^source count must be an integer, got 1.5$"):
            AoaConfig(algorithm=algorithm, n_sources=1.5)

    @pytest.mark.parametrize("algorithm", aoa.ALGORITHMS)
    def test_numpy_integers_are_taken_as_ints(self, ula_geom, chan80, algorithm):
        frames = np.stack([single_path_frame(ula_geom, chan80, theta, snr_db=20.0, seed=k).csi
                           for k, theta in enumerate(np.linspace(0.2, 1.2, 6))])
        cfg = AoaConfig(algorithm=algorithm, window=np.int64(4), n_sources=np.int64(1))
        assert (type(cfg.window), type(cfg.n_sources)) == (int, int)
        bearings = bearing_csi_estimator(ula_geom, cfg)(chan80, frames)
        expected = bearing_csi_estimator(ula_geom, AoaConfig(algorithm=algorithm, window=4))(
            chan80, frames)
        assert all(np.array_equal(a, b) for a, b in zip(bearings, expected))
        profile = Profile2D(np.ones((3, 2)), np.arange(3.0), np.arange(2.0))
        assert average_profiles([profile] * 3, np.int64(2)) == average_profiles([profile] * 3, 2)

    def test_grid_cells_bounded_in_the_config(self):
        with pytest.raises(ConfigurationError, match=re.escape(
                "the grids hold 5000 bearings x 1000 distances; at most 4194304 cells")):
            AoaConfig(theta_grid=np.linspace(-np.pi, np.pi, 5000), dist_grid=np.arange(1000.0))
        AoaConfig(theta_grid=np.arange(1024.0), dist_grid=np.arange(4096.0))

    def test_unknown_algorithm_and_no_source_refused(self):
        with pytest.raises(ConfigurationError, match="^unknown algorithm 'capon'$"):
            AoaConfig(algorithm="capon")
        with pytest.raises(ConfigurationError, match="^source count must be >= 1$"):
            AoaConfig(n_sources=0)


class TestBartlett:
    def test_noiseless_peak_at_truth(self, square_geom, chan80, cfg):
        theta, tau = np.radians(37.0), 18e-9
        frame = single_path_frame(square_geom, chan80, theta, tau)
        profile = bartlett_profile(frame, square_geom, cfg)
        ti, di = profile.argmax_cell()
        assert abs(wrap_angle(profile.theta_grid[ti] - theta)) <= np.radians(1.0)
        assert abs(profile.dist_grid[di] - SPEED_OF_LIGHT * tau) <= 0.25

    def test_two_paths_direct_strongest_reflection_visible(self, square_geom, chan80, cfg):
        th_d, th_r = np.radians(10.0), np.radians(-75.0)
        tau_d, tau_r = 12e-9, 40e-9
        frame = synth_frame(
            [PathComponent(aoa=th_d, delay_s=tau_d, amplitude=1.0),
             PathComponent(aoa=th_r, delay_s=tau_r, amplitude=0.5)],
            square_geom, chan80,
        )
        profile = bartlett_profile(frame, square_geom, cfg)
        ti, di = profile.argmax_cell()
        assert abs(wrap_angle(profile.theta_grid[ti] - th_d)) <= np.radians(1.0)
        # reflection shows as a local maximum near its own cell
        ri = np.argmin(np.abs(profile.theta_grid - th_r))
        rj = np.argmin(np.abs(profile.dist_grid - SPEED_OF_LIGHT * tau_r))
        region = profile.values[ri - 2:ri + 3, rj - 2:rj + 3]
        assert region.max() > 0.15

    def test_global_phase_invariance(self, square_geom, chan80, cfg):
        frame = single_path_frame(square_geom, chan80, 0.5, 20e-9, snr_db=20.0, seed=5)
        rotated = frame
        rotated.csi = (frame.csi * np.exp(1j * 1.234)).astype(np.complex64)
        a = bartlett_profile(frame, square_geom, cfg)
        b = bartlett_profile(rotated, square_geom, cfg)
        assert np.allclose(a.values, b.values, atol=1e-5)

    def test_normalized_to_one(self, square_geom, chan80, cfg):
        frame = single_path_frame(square_geom, chan80, -1.2)
        assert bartlett_profile(frame, square_geom, cfg).values.max() == pytest.approx(1.0)

    def test_dimension_mismatch(self, chan80, cfg):
        geom3 = ArrayGeometry.uniform_linear(3, 0.02)
        frame = single_path_frame(ArrayGeometry.square(0.02), chan80, 0.0)
        with pytest.raises(DimensionMismatchError):
            bartlett_profile(frame, geom3, cfg)


# The Gram kernel has n_rx^2 columns, so every antenna count gets its own
# shape; the square keeps its original test ids.
_NAIVE_CASES = [pytest.param(channel, bw, layout,
                             id=f"{channel}-{bw}" + ("" if layout == "square" else f"-{layout}"))
                for channel, bw in [(36, 20), (38, 40), (155, 80)]
                for layout in ["square", "ula1", "ula2", "ula3"]]


class TestBartlettKernels:
    @pytest.mark.parametrize("channel,bw,layout", _NAIVE_CASES)
    def test_matches_naive_double_sum(self, channel, bw, layout):
        chan = ChannelSpec(channel, bw)
        spacing = 0.45 * wavelength(chan)
        geom = (ArrayGeometry.square(spacing) if layout == "square"
                else ArrayGeometry.uniform_linear(int(layout[-1]), spacing, axis="x"))
        cfg = AoaConfig(theta_grid=np.radians(np.arange(-175.0, 180.0, 10.0)),
                        dist_grid=np.arange(0.0, 30.0 + 1e-9, 1.0))
        frame = synth_frame(
            [PathComponent(aoa=0.7, delay_s=14e-9),
             PathComponent(aoa=-2.0, delay_s=45e-9, amplitude=0.5)],
            geom, chan, snr_db=10.0, rng_seed=3,
        )
        csi = frame.csi[:, 0, :].astype(np.complex128)
        freqs = subcarrier_frequencies(chan)
        naive = np.empty((cfg.theta_grid.size, cfg.dist_grid.size))
        for ti, theta in enumerate(cfg.theta_grid):
            s = steering_vector(theta, geom, wavelength(chan))
            for di, d in enumerate(cfg.dist_grid):
                terms = (csi * np.conj(s)[:, None]
                         * np.exp(2j * np.pi * freqs * d / SPEED_OF_LIGHT)[None, :])
                naive[ti, di] = abs(np.sum(terms)) ** 2
        profile = bartlett_profile(frame, geom, cfg)
        # both sides are normalized to a peak of 1, so this is relative to it
        assert np.max(np.abs(profile.values - naive / naive.max())) <= 1e-12

    def test_alternating_channels_and_grids_match_cold(self):
        geom = ArrayGeometry.square(0.02)
        chans = [ChannelSpec(36, 20), ChannelSpec(155, 80)]
        grids = [build_grids()[1], np.arange(0.0, 12.0 + 1e-9, 0.5)]
        frames = {c: single_path_frame(geom, c, 0.9, snr_db=15.0, seed=1) for c in chans}
        cold = {}
        for c in chans:
            for g, grid in enumerate(grids):
                aoa._range_phasors.cache_clear()
                cold[c, g] = bartlett_profile(frames[c], geom,
                                              AoaConfig(dist_grid=grid)).values
        for _ in range(3):
            for c in chans:
                for g, grid in enumerate(grids):
                    warm = bartlett_profile(frames[c], geom, AoaConfig(dist_grid=grid))
                    assert np.array_equal(warm.values, cold[c, g])

    def test_cached_kernels_are_read_only(self, chan80, square_geom):
        theta, dist = (grid.tobytes() for grid in build_grids())
        kernels = (aoa._range_phasors(chan80, dist), aoa._delay_steering(122, dist),
                   aoa._gram_kernel_t(square_geom.positions.tobytes(), wavelength(chan80),
                                      theta),
                   *aoa._gram_rows(4))
        for kernel in kernels:
            with pytest.raises(ValueError):
                kernel[(0,) * kernel.ndim] = 0

    @pytest.mark.parametrize("layout", ["ula2", "square"])
    def test_exact_null_has_no_negative_cell(self, chan80, layout, rng):
        # antennas 0 and 1 in anti-phase: their sum cancels wherever their
        # steering agrees, and the Gram form's rounding there falls on
        # either side of zero
        geom = (ArrayGeometry.square(0.02) if layout == "square"
                else ArrayGeometry.uniform_linear(2, 0.02, axis="y"))
        for k in range(5):
            row = rng.standard_normal(chan80.n_sub) + 1j * rng.standard_normal(chan80.n_sub)
            csi = np.zeros((geom.n_antennas, 1, chan80.n_sub), dtype=np.complex64)
            csi[0, 0], csi[1, 0] = row, -row
            frame = CsiFrame(csi=csi, rssi_dbm=-40.0, source_mac=b"\x02" * 6, seq=k,
                             chanspec=chan80, timestamp_ns=k)
            values = bartlett_profile(frame, geom, AoaConfig()).values
            assert values.min() >= 0.0
            assert values.min() <= 1e-12  # the null is on the grid


class TestSteeringCache:
    def test_alternating_geometries_channels_and_grids_match_cold(self):
        chans = [ChannelSpec(36, 20), ChannelSpec(155, 80)]
        geoms = [ArrayGeometry.uniform_linear(4, 0.025, axis="y"),
                 ArrayGeometry.uniform_linear(3, 0.02, axis="x")]
        grids = [np.radians(np.arange(-89.0, 90.0, 2.0)), np.radians(np.arange(-60.0, 61.0))]
        cases = [(c, g, t) for c in range(2) for g in range(2) for t in range(2)]
        dist = np.arange(0.0, 12.0 + 1e-9, 0.5)

        def outputs(c, g, t):
            chan, geom = chans[c], geoms[g]
            cfg = AoaConfig(theta_grid=grids[t], dist_grid=dist)
            frame = single_path_frame(geom, chan, 0.4, snr_db=15.0, seed=c + 2 * g)
            return (bartlett_profile(frame, geom, cfg).values,
                    music_spectrum([frame], geom, cfg),
                    spotfi_pseudo([frame], geom, cfg))

        cold = {}
        for case in cases:
            aoa._steering_kernel.cache_clear()
            cold[case] = outputs(*case)
        for _ in range(2):
            for case in cases:
                for warm, ref in zip(outputs(*case), cold[case]):
                    assert np.array_equal(warm, ref)

    def test_every_estimator_reads_one_steering_kernel(self, ula_geom, chan80):
        # SpotFi's 2-antenna sub-array steers with the array's first columns
        cfg = AoaConfig()
        frame = single_path_frame(ula_geom, chan80, 0.4, snr_db=15.0, seed=3)
        aoa._steering_kernel.cache_clear()
        bartlett_profile(frame, ula_geom, cfg)
        music_spectrum([frame], ula_geom, cfg)
        spotfi_estimate(frame, ula_geom, cfg)
        assert aoa._steering_kernel.cache_info().currsize == 1

    def test_cached_steering_equals_uncached_and_is_read_only(self, square_geom, chan80):
        theta = AoaConfig().theta_grid
        lam = wavelength(chan80)
        key = (square_geom.positions.tobytes(), lam, theta.tobytes())
        cached = aoa._steering_kernel(*key)
        assert np.array_equal(cached, steering_vector(theta, square_geom, lam))
        assert aoa._steering_kernel(*key) is cached
        with pytest.raises(ValueError):
            cached[0, 0] = 0.0

    @pytest.mark.parametrize("chan", [ChannelSpec(155, 80), ChannelSpec(36, 20)],
                             ids=lambda c: f"{c.channel_number}-{c.bandwidth_mhz}")
    @pytest.mark.parametrize("layout", ["square-0.45", "square-0.5", "ula-x", "ula-y"])
    def test_cached_steering_is_steering_vector_bit_for_bit(self, layout, chan):
        # the estimators steer with the formula synthesis and calibration use
        lam = wavelength(chan)
        kind, _, size = layout.partition("-")
        geom = (ArrayGeometry.square(float(size) * lam) if kind == "square"
                else ArrayGeometry.uniform_linear(4, lam / 2.0, axis=size))
        theta = AoaConfig().theta_grid
        per_angle = np.array([steering_vector(t, geom, lam) for t in theta])
        assert np.array_equal(aoa._steering_kernel(geom.positions.tobytes(), lam,
                                                   theta.tobytes()), per_angle)


class TestMusic:
    def test_single_source_peak_and_ratio(self, square_geom, chan80, cfg):
        theta = np.radians(-58.0)
        frame = single_path_frame(square_geom, chan80, theta)
        spectrum = music_spectrum([frame], square_geom, cfg)
        k = int(np.argmax(spectrum))
        assert abs(wrap_angle(cfg.theta_grid[k] - theta)) <= np.radians(1.0)
        assert spectrum[k] >= 1e3 * np.median(spectrum)

    def test_global_phase_invariance(self, square_geom, chan80, cfg):
        frame = single_path_frame(square_geom, chan80, 0.9, snr_db=15.0, seed=2)
        a = music_spectrum([frame], square_geom, cfg)
        frame.csi = (frame.csi * np.exp(1j * 0.77)).astype(np.complex64)
        b = music_spectrum([frame], square_geom, cfg)
        # identical up to the float32 rounding of the rotated frame;
        # compare the well-conditioned denominators and the argmax
        assert np.allclose(1.0 / a, 1.0 / b, atol=1e-5)
        assert np.argmax(a) == np.argmax(b)

    def test_full_source_count_rejected(self, square_geom, chan80):
        frame = single_path_frame(square_geom, chan80, 0.1)
        with pytest.raises(ConfigurationError):
            music_spectrum([frame], square_geom, AoaConfig(n_sources=4))

    def test_no_frames_rejected(self, square_geom, cfg):
        with pytest.raises(ConfigurationError):
            music_spectrum([], square_geom, cfg)

    @pytest.mark.parametrize("window", [1, 4])
    @pytest.mark.parametrize("n_rx,n_sources", [(4, 1), (4, 2), (4, 3), (2, 1)])
    def test_equals_the_reference_formula_bit_for_bit(self, chan80, window, n_rx, n_sources):
        lam = wavelength(chan80)
        geom = (ArrayGeometry.square(0.45 * lam) if n_rx == 4
                else ArrayGeometry.uniform_linear(2, lam / 2.0))
        paths = [PathComponent(aoa=0.4, delay_s=10e-9),
                 PathComponent(aoa=-1.9, delay_s=45e-9, amplitude=0.5)]
        frames = [synth_frame(paths, geom, chan80, snr_db=20.0, rng_seed=seed)
                  for seed in range(window)]
        cfg = AoaConfig(n_sources=n_sources)
        snapshots = np.concatenate([f.csi[:, 0, :].astype(np.complex128) for f in frames],
                                   axis=1)
        noise = _dense_eigenpairs(snapshots, n_rx)[1][:, :n_rx - n_sources]
        a = steering_vector(cfg.theta_grid, geom, lam)
        expected = 1 / np.maximum(np.sum(np.abs(np.conj(a) @ noise) ** 2, axis=1),
                                  np.finfo(float).tiny)
        assert np.array_equal(music_spectrum(frames, geom, cfg), expected)


    def test_source_count_checked_when_the_estimator_is_built(self, square_geom):
        with pytest.raises(ConfigurationError, match="no noise subspace"):
            bearing_csi_estimator(square_geom, AoaConfig(algorithm="music", n_sources=4))

    def test_mixed_block_at_window_one_is_frame_by_frame(self, square_geom, chan80, chan20):
        # window 1 may switch channel between frames: a mixed block goes in
        # as its runs of one channel
        paths = [PathComponent(aoa=0.7, delay_s=10e-9),
                 PathComponent(aoa=-1.2, delay_s=35e-9, amplitude=0.6)]
        chans = [chan80] * 5 + [chan20] * 3 + [chan80] * 4
        frames = [synth_frame(paths, square_geom, chan, snr_db=15.0, rng_seed=seed,
                              timestamp_ns=seed) for seed, chan in enumerate(chans)]
        cfg = AoaConfig(algorithm="music", n_sources=2)
        estimate_frame = bearing_csi_estimator(square_geom, cfg)
        estimate = bearing_csi_estimator(square_geom, cfg)
        by_frame = [estimate_runs(estimate_frame, [frame], cfg)[0] for frame in frames]
        assert (estimate_runs(estimate, frames[:2], cfg) + estimate_runs(estimate, frames[2:], cfg)
                == by_frame)


class TestSpotfi:
    def test_single_path_within_one_cell(self, ula_geom, chan80):
        cfg = AoaConfig(theta_grid=np.radians(np.arange(-89.0, 90.0)))
        theta, tau = np.radians(23.0), 16e-9
        frame = single_path_frame(ula_geom, chan80, theta, tau)
        top = spotfi_estimate(frame, ula_geom, cfg)[0]
        assert abs(wrap_angle(top.theta - theta)) <= np.radians(1.0)
        assert abs(top.tau - tau) <= 0.25 / SPEED_OF_LIGHT

    def test_two_paths_both_recovered(self, ula_geom, chan80):
        cfg = AoaConfig(theta_grid=np.radians(np.arange(-89.0, 90.0)), n_sources=2)
        th1, tau1 = np.radians(5.0), 10e-9
        th2, tau2 = np.radians(42.0), 10e-9 + 9e-9  # 37 deg, 2.7 m apart
        frame = synth_frame(
            [PathComponent(aoa=th1, delay_s=tau1, amplitude=1.0),
             PathComponent(aoa=th2, delay_s=tau2, amplitude=0.55)],
            ula_geom, chan80,
        )
        paths = spotfi_estimate(frame, ula_geom, cfg)
        assert len(paths) == 2
        cell_t, cell_d = np.radians(1.0), 0.25 / SPEED_OF_LIGHT
        # match by nearest bearing: both truths recovered within one cell
        for th, tau in ((th1, tau1), (th2, tau2)):
            best = min(paths, key=lambda p: abs(wrap_angle(p.theta - th)))
            assert abs(wrap_angle(best.theta - th)) <= cell_t
            assert abs(best.tau - tau) <= cell_d

    def test_delay_shift_moves_tau_estimates(self, ula_geom, chan80):
        cfg = AoaConfig(theta_grid=np.radians(np.arange(-89.0, 90.0)))
        theta = np.radians(-15.0)
        shift = 20e-9
        a = spotfi_estimate(single_path_frame(ula_geom, chan80, theta, 12e-9),
                            ula_geom, cfg)[0]
        b = spotfi_estimate(single_path_frame(ula_geom, chan80, theta, 12e-9 + shift),
                            ula_geom, cfg)[0]
        assert b.tau - a.tau == pytest.approx(shift, abs=2 * 0.25 / SPEED_OF_LIGHT)

    def test_non_ula_rejected(self, square_geom, chan80, cfg):
        frame = single_path_frame(square_geom, chan80, 0.3)
        with pytest.raises(UnsupportedGeometryError):
            spotfi_estimate(frame, square_geom, cfg)

    def test_profile_refuses_a_non_ula(self, square_geom, chan80, cfg):
        # on the 0.45 lambda square it would peak at -27 deg for this 28.6 deg path
        frame = single_path_frame(square_geom, chan80, 0.5)
        with pytest.raises(UnsupportedGeometryError, match="requires a uniform linear array"):
            spotfi_estimate(frame, square_geom, cfg)
        with pytest.raises(UnsupportedGeometryError, match="requires a uniform linear array"):
            bearing_csi_estimator(square_geom, AoaConfig(algorithm="spotfi"))

    def test_one_antenna_rejected(self, chan80, cfg):
        geom = ArrayGeometry(np.zeros((1, 2)))
        frame = single_path_frame(geom, chan80, 0.3)
        with pytest.raises(UnsupportedGeometryError,
                           match="^spatial smoothing needs at least two antennas$"):
            spotfi_estimate(frame, geom, cfg)

    def test_smoothing_that_leaves_no_noise_subspace_rejected(self, chan80):
        cfg = AoaConfig(algorithm="spotfi", smoothing=(1, 2), n_sources=2)
        with pytest.raises(ConfigurationError, match="^source count leaves no noise subspace$"):
            aoa.spotfi_smoothing_dims(4, chan80, cfg)

    def test_window_stacks_every_frames_snapshots(self, ula_geom, chan80):
        cfg = AoaConfig(theta_grid=np.radians(np.arange(-89.0, 90.0, 2.0)), n_sources=2,
                        algorithm="spotfi", window=3)
        frames = [synth_frame([PathComponent(aoa=0.2, delay_s=10e-9),
                               PathComponent(aoa=-0.6, delay_s=25e-9, amplitude=0.6)],
                              ula_geom, chan80, snr_db=15.0, rng_seed=seed)
                  for seed in (11, 12, 13)]
        pseudo = spotfi_pseudo(frames, ula_geom, cfg)
        ref, dim = spotfi_einsum_reference(frames, ula_geom, cfg)
        assert np.max(np.abs(1.0 / pseudo - 1.0 / ref)) <= 1e-12 * dim
        # a window is not the average of its frames' pseudospectra
        single = spotfi_pseudo(frames[-1:], ula_geom, cfg)
        assert not np.allclose(pseudo, single)

    @pytest.mark.parametrize("estimator", [music_spectrum])
    def test_window_frames_must_share_a_channel(self, ula_geom, chan80, cfg, estimator):
        frames = [single_path_frame(ula_geom, chan, 0.3)
                  for chan in (chan80, ChannelSpec(42, 80), ChannelSpec(38, 40))]
        for window in (frames[:2], frames[::2]):
            with pytest.raises(DimensionMismatchError, match="channel"):
                estimator(window, ula_geom, cfg)

    def test_mirror_tie_breaks_to_smaller_index_under_any_argsort(self, chan80, monkeypatch):
        # an x-axis ULA sees theta and -theta through bitwise-identical
        # steering rows, so the profile ties exactly on the mirror pair
        ula_x = ArrayGeometry.uniform_linear(4, wavelength(chan80) / 2.0, axis="x")
        cfg = AoaConfig(algorithm="spotfi")
        frame = single_path_frame(ula_x, chan80, np.radians(30.0), snr_db=25.0, seed=3)
        curve = spotfi_pseudo([frame], ula_x, cfg).max(axis=1)
        k = int(np.argmax(curve))
        mirror = int(np.flatnonzero(cfg.theta_grid == -cfg.theta_grid[k])[0])
        assert curve[mirror] == curve[k] and k < mirror
        assert abs(np.degrees(cfg.theta_grid[k]) + 30.0) <= 1.0
        stable_sort = np.argsort

        def reversed_ties(a, axis=-1, kind=None, order=None, **kwargs):
            # a valid unstable sort: equal keys in descending index order
            if kind == "stable":
                return stable_sort(a, axis=axis, kind="stable")
            a = np.asarray(a)
            return (a.size - 1 - stable_sort(a[::-1], kind="stable"))

        for argsort in (lambda a, *args, **kwargs: stable_sort(a, kind="stable"),
                        reversed_ties):
            monkeypatch.setattr(np, "argsort", argsort)
            top = spotfi_estimate(frame, ula_x, cfg)[0]
            assert top.theta == cfg.theta_grid[k]
            assert top.power == curve[k]
            bearing = estimate_bearing(curve, frame.rssi_dbm, cfg)
            assert bearing.theta == wrap_angle(top.theta) and bearing.strength == top.power

    @pytest.mark.parametrize("n_sources", [1, 2, 3])
    def test_pseudospectrum_matches_einsum_reference(self, ula_geom, chan80, n_sources):
        cfg = AoaConfig(theta_grid=np.radians(np.arange(-89.0, 90.0, 2.0)),
                        n_sources=n_sources)
        frame = synth_frame(
            [PathComponent(aoa=0.2, delay_s=10e-9),
             PathComponent(aoa=-0.6, delay_s=25e-9, amplitude=0.6),
             PathComponent(aoa=1.0, delay_s=40e-9, amplitude=0.4)],
            ula_geom, chan80, snr_db=20.0, rng_seed=5,
        )
        pseudo = spotfi_pseudo([frame], ula_geom, cfg)
        ref, dim = spotfi_einsum_reference([frame], ula_geom, cfg)
        # compare denominators dim - ||E_s^H v||^2, whose rounding scales with dim
        assert np.max(np.abs(1.0 / pseudo - 1.0 / ref)) <= 1e-12 * dim

    @pytest.mark.parametrize("window", [1, 3])
    @pytest.mark.parametrize("n_sources", [1, 2])
    def test_projection_matches_explicit_joint_steering(self, ula_geom, chan80, n_sources,
                                                        window):
        # _spotfi_pseudo contracts over the delay steering before the
        # antenna steering; the reference forms every joint steering vector
        # v = s(theta) (x) sub(tau) whole and projects it on the same
        # signal subspace
        cfg = AoaConfig(theta_grid=np.radians(np.arange(-89.0, 90.0, 7.0)),
                        dist_grid=np.arange(0.0, 30.0 + 1e-9, 1.5), n_sources=n_sources)
        frames = [synth_frame([PathComponent(aoa=0.2, delay_s=10e-9),
                               PathComponent(aoa=-0.6, delay_s=25e-9, amplitude=0.6)],
                              ula_geom, chan80, snr_db=20.0, rng_seed=seed)
                  for seed in (21, 22, 23)[:window]]
        n_ant_sub, n_sub_sub = aoa.spotfi_smoothing_dims(4, chan80, cfg)
        dim = n_ant_sub * n_sub_sub
        signal = aoa._spotfi_signal_subspace(chan80, [f.csi[:, 0, :] for f in frames],
                                             n_ant_sub, n_sub_sub, n_sources)
        ant = steering_vector(cfg.theta_grid, ArrayGeometry(ula_geom.positions[:n_ant_sub]),
                              wavelength(chan80))
        sub = np.exp(-2j * np.pi * SUBCARRIER_SPACING_HZ
                     * np.outer(np.arange(n_sub_sub), cfg.dist_grid / SPEED_OF_LIGHT))
        # element a * n_sub_sub + j of v is s_a(theta) sub_j(tau), the
        # order of a snapshot's sub-array elements
        joint = np.einsum("ta,jd->tdaj", ant, sub).reshape(
            cfg.theta_grid.size, cfg.dist_grid.size, dim)
        sig_power = np.sum(np.abs(joint @ np.conj(signal)) ** 2, axis=-1)
        ref = 1.0 / (dim - sig_power)
        assert np.min(dim - sig_power) > 1e-9 * dim  # no cell on the floor
        np.testing.assert_allclose(spotfi_pseudo(frames, ula_geom, cfg), ref,
                                   rtol=1e-10, atol=0.0)

    def test_mirror_bearings_agree_to_rounding_on_a_half_wavelength_ula(self, ula_geom,
                                                                        chan80):
        # a y-axis ULA sees theta and 180 deg - theta through one steering
        # vector, up to the rounding of sin: which of a mirror pair the
        # argmax takes is a rounding-level choice, free to change with the
        # order of the contractions
        cfg = AoaConfig(algorithm="spotfi")
        frame = synth_frame([PathComponent(aoa=0.2, delay_s=10e-9),
                             PathComponent(aoa=-0.6, delay_s=25e-9, amplitude=0.6)],
                            ula_geom, chan80, snr_db=20.0, rng_seed=5)
        values = spotfi_pseudo([frame], ula_geom, cfg)
        deg = np.rint(np.degrees(cfg.theta_grid)).astype(int)
        assert np.array_equal(deg, np.arange(-179, 181))
        mirror = (180 - deg + 179) % 360  # grid index of 180 - theta, wrapped
        assert np.array_equal(np.sort(mirror), np.arange(360))
        np.testing.assert_allclose(values[mirror], values, rtol=1e-12, atol=0.0)

    def test_alternating_grids_and_smoothing_match_cold(self, ula_geom, chan80):
        frame = single_path_frame(ula_geom, chan80, 0.3, snr_db=20.0, seed=2)
        theta = np.radians(np.arange(-89.0, 90.0, 3.0))
        cfgs = [AoaConfig(theta_grid=theta),
                AoaConfig(theta_grid=theta, dist_grid=np.arange(0.0, 12.0 + 1e-9, 0.5)),
                AoaConfig(theta_grid=theta, smoothing=(3, 60))]
        cold = []
        for cfg in cfgs:
            aoa._delay_steering.cache_clear()
            cold.append(spotfi_pseudo([frame], ula_geom, cfg))
        for _ in range(2):
            for cfg, ref in zip(cfgs, cold):
                assert np.array_equal(spotfi_pseudo([frame], ula_geom, cfg), ref)

    def test_leaves_scipy_linalg_unimported(self):
        # importing scipy.linalg alone costs ~5 MB of resident memory
        code = (
            "import sys\n"
            "import csisense\n"
            "from csisense import ArrayGeometry, ChannelSpec, PathComponent, synth_frame, "
            "wavelength\n"
            "from csisense.aoa import AoaConfig, spotfi_estimate\n"
            "chan = ChannelSpec(155, 80)\n"
            "ula = ArrayGeometry.uniform_linear(4, wavelength(chan) / 2, axis='y')\n"
            "frame = synth_frame([PathComponent(aoa=0.3, delay_s=1e-8)], ula, chan)\n"
            "spotfi_estimate(frame, ula, AoaConfig())\n"
            "print('scipy.linalg' in sys.modules)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip() == "False"

    def test_loads_no_scipy(self):
        code = (
            "import sys\n"
            "import csisense\n"
            "from csisense import ArrayGeometry, ChannelSpec, PathComponent, synth_frame, "
            "wavelength\n"
            "from csisense.aoa import AoaConfig, spotfi_estimate\n"
            "chan = ChannelSpec(155, 80)\n"
            "ula = ArrayGeometry.uniform_linear(4, wavelength(chan) / 2, axis='y')\n"
            "frame = synth_frame([PathComponent(aoa=0.3, delay_s=1e-8)], ula, chan)\n"
            "spotfi_estimate(frame, ula, AoaConfig(n_sources=2))\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH")
                                   else [])))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("shape", [(1, 1), (1, 6), (6, 1), (2, 2), (3, 5), (9, 13)])
    def test_max_filter3_matches_brute_force(self, rng, shape):
        # small integer values make ties (plateaus) common
        for values in (rng.integers(0, 3, size=shape).astype(float),
                       rng.standard_normal(shape)):
            rows, cols = shape
            expected = np.array([[values[max(i - 1, 0): i + 2, max(j - 1, 0): j + 2].max()
                                  for j in range(cols)] for i in range(rows)])
            assert np.array_equal(aoa._max_filter3(values), expected)

    def test_eigh_sizes_default_path_and_noise_source(self, ula_geom, chan80, monkeypatch):
        frame = synth_frame(
            [PathComponent(aoa=0.3, delay_s=12e-9),
             PathComponent(aoa=-0.8, delay_s=42e-9, amplitude=0.2)],
            ula_geom, chan80, snr_db=30.0, rng_seed=7,
        )
        cfg = AoaConfig()
        n_ant_sub, n_sub_sub = aoa.spotfi_smoothing_dims(4, chan80, cfg)
        dim = n_ant_sub * n_sub_sub
        shapes = []
        eigh = np.linalg.eigh

        def recording(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        spotfi_estimate(frame, ula_geom, cfg)
        assert dim == 244
        assert (dim, dim) not in shapes
        # a third source sits inside the noise: the Krylov solve stops at
        # its first convergence test (two blocks) and the dense eigh runs
        shapes.clear()
        spotfi_estimate(frame, ula_geom, AoaConfig(n_sources=3))
        assert shapes == [(3, 3), (6, 6), (dim, dim)]

    @pytest.mark.parametrize("tau", [0.0, 16e-9])
    @pytest.mark.parametrize("n_sources", [1, 2, 3])
    def test_noiseless_single_path_matches_eigh_top_path(self, ula_geom, chan80, n_sources,
                                                         tau):
        # (near) rank-1 covariance: n_sources > 1 asks for eigenvectors of a
        # zero eigenvalue; at zero delay the rank is exactly 1, so Krylov
        # columns after the first can have nothing left once orthogonalized
        cfg = AoaConfig(theta_grid=np.radians(np.arange(-89.0, 90.0)), n_sources=n_sources)
        frame = single_path_frame(ula_geom, chan80, np.radians(23.0), tau)
        pseudo = spotfi_pseudo([frame], ula_geom, cfg)
        ref, _dim = spotfi_einsum_reference([frame], ula_geom, cfg)
        assert np.all(np.isfinite(pseudo))
        ti, di = np.unravel_index(np.argmax(ref), ref.shape)
        assert np.unravel_index(np.argmax(pseudo), pseudo.shape) == (ti, di)
        top = spotfi_estimate(frame, ula_geom, cfg)[0]
        assert top.theta == cfg.theta_grid[ti]
        assert top.tau == cfg.dist_grid[di] / SPEED_OF_LIGHT

    @pytest.mark.parametrize("n_sources", [1, 2])
    def test_all_zero_frame_matches_eigh_reference(self, ula_geom, chan80, n_sources):
        cfg = AoaConfig(theta_grid=np.radians(np.arange(-89.0, 90.0, 2.0)),
                        n_sources=n_sources)
        frame = single_path_frame(ula_geom, chan80, 0.3)
        frame = dataclasses.replace(frame, csi=np.zeros_like(frame.csi))
        pseudo = spotfi_pseudo([frame], ula_geom, cfg)
        ref, dim = spotfi_einsum_reference([frame], ula_geom, cfg)
        assert np.max(np.abs(1.0 / pseudo - 1.0 / ref)) <= 1e-12 * dim

    @pytest.mark.parametrize("n_sources", [1, 3])
    def test_repeatable_and_leaves_global_random_state(self, ula_geom, chan80, n_sources):
        cfg = AoaConfig(theta_grid=np.radians(np.arange(-89.0, 90.0, 2.0)),
                        n_sources=n_sources)
        frame = synth_frame(
            [PathComponent(aoa=0.2, delay_s=10e-9),
             PathComponent(aoa=-0.6, delay_s=25e-9, amplitude=0.6)],
            ula_geom, chan80, snr_db=20.0, rng_seed=4,
        )
        before = np.random.get_state()
        first = spotfi_pseudo([frame], ula_geom, cfg)
        second = spotfi_pseudo([frame], ula_geom, cfg)
        after = np.random.get_state()
        assert np.array_equal(first, second)
        assert before[0] == after[0] and np.array_equal(before[1], after[1])
        assert before[2:] == after[2:]


def spotfi_einsum_reference(frames, geom, cfg):
    """SpotFi pseudospectrum of the frames' stacked snapshots, from a dense
    covariance eigh and the two einsum contractions it used to have."""
    frame = frames[0]
    n_cols = aoa._subcarrier_grid(frame.chanspec)[1].size
    n_ant_sub, n_sub_sub = 2, n_cols // 2
    dim = n_ant_sub * n_sub_sub
    snapshots = np.hstack([
        np.lib.stride_tricks.sliding_window_view(
            aoa._interpolate_subcarriers(f.csi[:, 0, :].astype(np.complex128), f.chanspec),
            (n_ant_sub, n_sub_sub)).reshape(-1, dim).T
        for f in frames])
    cov = snapshots @ snapshots.conj().T / snapshots.shape[1]
    cov = 0.5 * (cov + cov.conj().T)
    _eigvals, eigvecs = np.linalg.eigh(cov)
    signal = eigvecs[:, dim - cfg.n_sources:].reshape(n_ant_sub, n_sub_sub, cfg.n_sources)
    tau_grid = cfg.dist_grid / SPEED_OF_LIGHT
    ant = np.array([steering_vector(t, ArrayGeometry(geom.positions[:n_ant_sub]),
                                    wavelength(frame.chanspec)) for t in cfg.theta_grid])
    sub = np.exp(-2j * np.pi * SUBCARRIER_SPACING_HZ * np.outer(np.arange(n_sub_sub), tau_grid))
    t1 = np.einsum("ta,ask->tsk", np.conj(ant), signal)
    t2 = np.einsum("sd,tsk->tdk", np.conj(sub), t1)
    sig_power = np.sum(np.abs(t2) ** 2, axis=2)
    return 1.0 / np.maximum(dim - sig_power, 1e-9 * dim), dim


class TestAveraging:
    def test_window_one_is_identity(self, square_geom, chan80, cfg):
        frame = single_path_frame(square_geom, chan80, 0.4)
        profile = bartlett_profile(frame, square_geom, cfg)
        merged = average_profiles([profile], 1)
        assert np.allclose(merged.values, profile.values)

    def test_commutes_with_normalization_up_to_scale(self, square_geom, chan80, cfg):
        frames = [single_path_frame(square_geom, chan80, 0.4, snr_db=10.0, seed=s)
                  for s in range(4)]
        profiles = [bartlett_profile(f, square_geom, cfg) for f in frames]
        merged = average_profiles(profiles, 4)
        raw_mean = np.mean([p.values for p in profiles], axis=0)
        assert np.allclose(merged.values, raw_mean / raw_mean.max(), atol=1e-12)

    def test_grid_mismatch_rejected(self, square_geom, chan80):
        a = bartlett_profile(single_path_frame(square_geom, chan80, 0.0),
                             square_geom, AoaConfig())
        b = bartlett_profile(single_path_frame(square_geom, chan80, 0.0),
                             square_geom,
                             AoaConfig(dist_grid=np.arange(0.0, 10.0, 0.5)))
        with pytest.raises(DimensionMismatchError):
            average_profiles([a, b], 2)

    @pytest.mark.parametrize("window", [0, aoa.MAX_WINDOW + 1, 10**20])
    def test_window_bounded_as_aoa_config_bounds_it(self, window):
        profile = Profile2D(np.ones((3, 2)), np.arange(3.0), np.arange(2.0))
        message = f"averaging window must be 1 to {aoa.MAX_WINDOW} frames, got {window}"
        with pytest.raises(ConfigurationError, match=message):
            average_profiles([profile], window)

    def test_no_profiles_refused(self):
        with pytest.raises(ConfigurationError, match="^no profiles to average$"):
            average_profiles([], 1)

    def test_averager_rejects_grid_mismatch(self, square_geom, chan80, cfg):
        frames = [single_path_frame(square_geom, chan80, 0.5, snr_db=5.0, seed=s)
                  for s in range(3)]
        profiles = [bartlett_profile(f, square_geom, cfg) for f in frames]
        other = bartlett_profile(frames[0], square_geom,
                                 AoaConfig(dist_grid=np.arange(0.0, 10.0, 0.5)))
        with pytest.raises(DimensionMismatchError):
            average_profiles([profiles[0], other, profiles[1]], 3)

    @pytest.mark.parametrize("window", [1, 3, 8])
    def test_estimator_matches_push_then_estimate(self, square_geom, chan80, window, rng):
        # the estimator, fed one frame at a time, reads the per-bearing peak
        # of the window's summed Gram terms; it must give what the public
        # average_profiles + estimate_bearing path gives, bit for bit, while
        # the window fills and slides, across an all-zero frame too
        cfg = AoaConfig(window=window)
        frames = [synth_frame([PathComponent(aoa=rng.uniform(-np.pi, np.pi), delay_s=15e-9),
                               PathComponent(aoa=rng.uniform(-np.pi, np.pi), delay_s=40e-9,
                                             amplitude=0.8)],
                              square_geom, chan80, snr_db=5.0, rng_seed=rng)
                  for _ in range(24)]
        frames[0].csi = np.zeros_like(frames[0].csi)
        frames[11].csi = np.zeros_like(frames[11].csi)
        estimate = bearing_csi_estimator(square_geom, cfg)
        wants = self._push_then_estimate(frames, square_geom, cfg)
        for frame, want in zip(frames, wants):
            [got] = estimate_runs(estimate, [frame], cfg)
            assert got.theta == want.theta
            assert got.strength == want.strength
            assert got == want
        # an all-zero first frame leaves an all-zero window of strength 0
        [first] = estimate_runs(bearing_csi_estimator(square_geom, cfg), frames[:1], cfg)
        assert first.strength == 0.0 and not np.signbit(first.strength)

    @staticmethod
    def _push_then_estimate(frames, geom, cfg):
        """The reference: each frame's profile added to the window, the
        average's bearing picked."""
        profiles = [bartlett_profile(frame, geom, cfg) for frame in frames]
        return [estimate_bearing(average_profiles(profiles[:k + 1], cfg.window),
                                 frame.rssi_dbm, cfg, frame.source_mac, frame.timestamp_ns)
                for k, frame in enumerate(frames)]

    @staticmethod
    def _frame_by_frame(frames, geom, cfg):
        """Each frame's bearing from one `bearing_csi_estimator`, fed a frame at a time."""
        estimate = bearing_csi_estimator(geom, cfg)
        return [est for frame in frames for est in estimate_runs(estimate, [frame], cfg)]

    def test_a_strong_frame_weighs_as_much_as_a_weak_one(self, square_geom, chan80, rng):
        # every profile enters the average over its own peak: one frame 40 dB
        # above the other three of its window does not outvote them
        cfg = AoaConfig(window=4)
        weak, strong = np.radians(35.0), np.radians(-110.0)
        frames = [synth_frame([PathComponent(aoa=strong, delay_s=25e-9, amplitude=100.0)
                               if k == 5 else PathComponent(aoa=weak, delay_s=15e-9)],
                              square_geom, chan80, snr_db=10.0, rng_seed=rng, timestamp_ns=k)
                  for k in range(8)]
        got = self._frame_by_frame(frames, square_geom, cfg)
        assert got == self._push_then_estimate(frames, square_geom, cfg)
        assert [round(np.degrees(est.theta)) for est in got] == [35] * 8

    @pytest.mark.parametrize("window", [1, 4, 8])
    @pytest.mark.parametrize("cut", [1, 5, 32])
    def test_block_cuts_match_push_then_estimate(self, square_geom, chan80, window, cut, rng):
        # all-zero frames at the start, alone and in a run: their windows
        # add zeros, and an all-zero window has strength 0
        cfg = AoaConfig(window=window)
        frames = [synth_frame([PathComponent(aoa=rng.uniform(-np.pi, np.pi), delay_s=15e-9),
                               PathComponent(aoa=rng.uniform(-np.pi, np.pi), delay_s=40e-9,
                                             amplitude=0.8)],
                              square_geom, chan80, snr_db=5.0, rng_seed=rng, timestamp_ns=k)
                  for k in range(70)]
        for k in (0, 1, 20, 41, 42, 43):
            frames[k].csi = np.zeros_like(frames[k].csi)
        estimate = bearing_csi_estimator(square_geom, cfg)
        got = [est for lo in range(0, len(frames), cut)
               for est in estimate_runs(estimate, frames[lo: lo + cut], cfg)]
        assert got == self._push_then_estimate(frames, square_geom, cfg)
        assert got[0].strength == 0.0 and not np.signbit(got[0].strength)

    def test_suppresses_randomly_phased_reflection(self, square_geom, chan80, rng):
        # one frozen window where some per-packet argmaxes stray but the
        # 20-packet average lands on the direct path
        cfg = AoaConfig(theta_grid=np.radians(np.arange(-87.0, 90.1, 3.0)),
                        dist_grid=np.arange(0.0, 15.0 + 1e-9, 0.75))
        th_d, tau_d = np.radians(20.0), 15e-9
        th_r, tau_r = np.radians(-60.0), 35e-9
        rel = 10 ** (-3 / 20)
        ti = np.argmin(np.abs(cfg.theta_grid - th_d))
        di = np.argmin(np.abs(cfg.dist_grid - SPEED_OF_LIGHT * tau_d))
        profiles = []
        for _ in range(20):
            phase = rng.uniform(0, 2 * np.pi)
            frame = synth_frame(
                [PathComponent(aoa=th_d, delay_s=tau_d),
                 PathComponent(aoa=th_r, delay_s=tau_r,
                               amplitude=rel * np.exp(1j * phase))],
                square_geom, chan80, snr_db=10.0, rng_seed=rng,
            )
            profiles.append(bartlett_profile(frame, square_geom, cfg))
        ai, aj = average_profiles(profiles, 20).argmax_cell()
        assert abs(ai - ti) <= 1 and abs(aj - di) <= 1


def full_grid_estimator(geom, cfg):
    """The reference for Bartlett's bounded peak search: the stream
    estimator with every range row in each product.  Each frame's power grid
    is its Gram terms times the kernel over all n_dist rows; a window sums
    its frames' terms over their peaks, oldest first; each curve is the
    per-bearing peak over its own peak, picked by `aoa._pick_bearing`."""
    window = deque(maxlen=cfg.window - 1)
    current = []

    def estimate(chanspec, csi):
        if current != [chanspec]:
            window.clear()
            current[:] = [chanspec]
        kernel = aoa._gram_kernel_t(aoa._grid_key(geom.positions),
                                    float(wavelength(chanspec)), aoa._grid_key(cfg.theta_grid))
        phasors = aoa._range_phasors(chanspec, aoa._grid_key(cfg.dist_grid))
        power = np.empty((cfg.dist_grid.size, cfg.theta_grid.size))
        curves = np.empty((len(csi), cfg.theta_grid.size))
        for k, snap in enumerate(csi[:, :, 0, :]):
            terms = aoa._range_gram_terms(snap, phasors)
            np.matmul(terms.T, kernel, out=power)
            if cfg.window > 1:
                peak = power.max()
                newest = terms / peak if peak > 0 else np.zeros_like(terms)
                first, *later = (*window, newest)
                total = first.copy()
                for scaled in later:
                    total += scaled
                window.append(newest)
                np.matmul(total.T, kernel, out=power)
            curve_over_peak(power, curves[k])
        return aoa._pick_bearing(curves)

    return estimate


def curve_over_peak(power, out):
    """Into `out`: the per-bearing peak of `power` over its own peak, or
    zeros if that is not positive."""
    np.max(power, axis=0, out=out)
    peak = out.max()
    if peak > 0:
        np.divide(out, peak, out=out)
    else:
        out[:] = 0.0


_SEARCH_GEOMETRIES = {
    "square": lambda lam: ArrayGeometry.square(0.45 * lam),
    "ula4-y": lambda lam: ArrayGeometry.uniform_linear(4, lam / 2.0, axis="y"),
    "ula3-x": lambda lam: ArrayGeometry.uniform_linear(3, lam / 2.0, axis="x"),
}


@lru_cache(maxsize=None)
def search_stream(layout, bw):
    """A seeded stream at every SNR from -10 to 30 dB: random one- to
    three-path frames, single paths on grid bearings (on a ULA their mirror
    is on the grid too, and rounding picks between them) and all-zero
    frames alone and in a run.  (geometry, channel, csi)."""
    chan = ChannelSpec(155, 80) if bw == 80 else ChannelSpec(36, 20)
    geom = _SEARCH_GEOMETRIES[layout](wavelength(chan))
    rng = np.random.default_rng([bw, len(layout)])
    csi = []
    for snr_db in (-10.0, 0.0, 10.0, 20.0, 30.0):
        for k in range(8):
            if k % 3 == 0:
                paths = [PathComponent(aoa=np.radians(rng.choice([0.0, 30.0, 45.0, -60.0, 90.0])),
                                       delay_s=12e-9)]
            else:
                paths = [PathComponent(aoa=rng.uniform(-np.pi, np.pi),
                                       delay_s=rng.uniform(0.0, 60e-9),
                                       amplitude=rng.uniform(0.2, 1.0)
                                       * np.exp(2j * np.pi * rng.uniform()))
                         for _ in range(rng.integers(1, 4))]
            csi.append(synth_frame(paths, geom, chan, snr_db=snr_db, rng_seed=rng).csi)
    for k in (0, 17, 18, 19):
        csi[k] = np.zeros_like(csi[k])
    return geom, chan, np.stack(csi)


def assert_picks_match(geom, cfg, chan, csi, cut):
    """`bearing_csi_estimator` and the full-grid reference, fed `csi` in
    blocks of `cut`, give equal indices and strengths, zero signs included."""
    estimate, reference = bearing_csi_estimator(geom, cfg), full_grid_estimator(geom, cfg)
    for lo in range(0, len(csi), cut):
        (k, strength), (want_k, want_strength) = (
            run(chan, csi[lo: lo + cut]) for run in (estimate, reference))
        assert np.array_equal(k, want_k), lo
        assert np.array_equal(strength, want_strength, equal_nan=True), lo
        assert np.array_equal(np.signbit(strength), np.signbit(want_strength)), lo


class TestBartlettPeakSearch:
    """Bartlett's bounded peak search picks what the full grid picks, bit
    for bit, and evaluates fewer rows than the grid holds."""

    @pytest.mark.parametrize("bw", [20, 80])
    @pytest.mark.parametrize("layout", sorted(_SEARCH_GEOMETRIES))
    @pytest.mark.parametrize("window", [1, 4, 8, 32])
    @pytest.mark.parametrize("cut", [1, 5, 32])
    def test_picks_equal_the_full_grid(self, layout, bw, window, cut):
        geom, chan, csi = search_stream(layout, bw)
        assert_picks_match(geom, AoaConfig(window=window), chan, csi, cut)

    @pytest.mark.parametrize("layout", sorted(_SEARCH_GEOMETRIES))
    @pytest.mark.parametrize("window", [4, 8])
    def test_a_frame_60_db_above_its_window(self, layout, window):
        geom, chan, csi = search_stream(layout, 80)
        csi = csi[20:].copy()
        csi[5] *= 1e3
        assert_picks_match(geom, AoaConfig(window=window), chan, csi, 5)

    @pytest.mark.parametrize("grids", [
        {"dist_grid": [3.0]},
        {"dist_grid": [0.0, 5.0]},
        {"dist_grid": np.arange(0.0, 4.5, 1.0)},
        {"theta_grid": np.radians(np.arange(-40.0, 60.5, 0.5))},
    ], ids=["1-point", "2-point", "5-point", "partial-theta"])
    @pytest.mark.parametrize("window", [1, 8])
    def test_picks_equal_the_full_grid_on_other_grids(self, grids, window):
        for layout in ("square", "ula4-y"):
            geom, chan, csi = search_stream(layout, 80)
            assert_picks_match(geom, AoaConfig(window=window, **grids), chan, csi, 5)

    @pytest.mark.parametrize("window", [1, 4])
    def test_non_finite_and_overflowing_frames_take_every_row(self, square_geom, chan80,
                                                              window):
        # |m|^2 overflows at 1e155, and a NaN or an infinity poisons a
        # frame's grid: those grids are evaluated whole, as np.max sees them
        _, _, csi = search_stream("square", 80)
        csi = csi[20:].astype(np.complex128)
        csi[2] *= 1e155
        csi[6, 0, 0, 3] = np.nan
        csi[10, 1, 0, 7] = np.inf
        csi[14] *= 1e-160
        with np.errstate(over="ignore", invalid="ignore"):
            assert_picks_match(square_geom, AoaConfig(window=window), chan80, csi, 5)

    @pytest.mark.parametrize("window", [1, 4])
    def test_a_single_path_frame_takes_one_chunk_of_rows(self, square_geom, chan80, window,
                                                         monkeypatch):
        # the bound is tight on a single path, so each search stops after
        # its first chunk of rows: one search for the frame's own peak and,
        # at window 4, one for its window's
        cfg = AoaConfig(window=window)
        frame = single_path_frame(square_geom, chan80, 0.6, snr_db=30.0, seed=4)
        estimate = bearing_csi_estimator(square_geom, cfg)
        chunks = []
        search = aoa._peak_search

        def counted(reach, curves):
            def recorded(items, rows):
                chunks.append(rows.shape)
                return curves(items, rows)
            return search(reach, recorded)

        monkeypatch.setattr(aoa, "_peak_search", counted)
        estimate(chan80, frame.csi[None])
        assert chunks == [(1, aoa._SEARCH_ROWS)] * (1 if window == 1 else 2)
        assert aoa._SEARCH_ROWS < cfg.dist_grid.size

    def test_every_product_holds_two_rows_or_more(self, square_geom, chan80):
        # bounds that never fall below a cell take every row: 121 rows in
        # chunks of 4 would leave one, so the last chunk takes five
        _, _, csi = search_stream("square", 80)
        terms = np.array([aoa._range_gram_terms(snap, aoa._range_phasors(
            chan80, aoa._grid_key(AoaConfig().dist_grid))) for snap in csi[20:24, :, 0, :]])
        kernel = aoa._gram_kernel_t(aoa._grid_key(square_geom.positions),
                                    float(wavelength(chan80)),
                                    aoa._grid_key(AoaConfig().theta_grid))
        shapes = []

        def curves(items, rows):
            shapes.append(rows.shape)
            picked = np.take_along_axis(terms[items], rows[:, None, :], axis=2)
            return (picked.transpose(0, 2, 1) @ kernel).max(axis=1)

        k, peak = aoa._peak_search(np.full((4, terms.shape[-1]), 1e300), curves)
        assert [rows for _, rows in shapes] == [4] * 29 + [5]
        full = terms.transpose(0, 2, 1) @ kernel
        assert np.array_equal(peak, full.max(axis=(1, 2)))
        assert np.array_equal(k, np.argmax(full.max(axis=1), axis=1))


class TestStreamWindow:
    """`bearing_csi_estimator`'s window, the same rule for every algorithm: it
    holds the stream's last frames on its current channel, and a refused
    block leaves it as it was."""

    @staticmethod
    def _stream(algorithm, chans, square_geom, ula_geom, rng, **cfg_keys):
        geom = ula_geom if algorithm == "spotfi" else square_geom
        cfg = AoaConfig(algorithm=algorithm, window=3, n_sources=2, **cfg_keys)
        frames = [synth_frame([PathComponent(aoa=rng.uniform(-np.pi, np.pi), delay_s=15e-9),
                               PathComponent(aoa=rng.uniform(-np.pi, np.pi), delay_s=40e-9,
                                             amplitude=0.8)],
                              geom, chan, snr_db=5.0, rng_seed=rng, timestamp_ns=k)
                  for k, chan in enumerate(chans)]
        return geom, cfg, frames

    @pytest.mark.parametrize("algorithm", aoa.ALGORITHMS)
    def test_window_restarts_at_a_channel_change(self, algorithm, square_geom, ula_geom,
                                                 chan80, chan20, rng):
        geom, cfg, frames = self._stream(algorithm, [chan80] * 5 + [chan20] * 3 + [chan80] * 4,
                                         square_geom, ula_geom, rng)
        runs = (frames[:5], frames[5:8], frames[8:])
        want = [est for run in runs
                for est in estimate_runs(bearing_csi_estimator(geom, cfg), run, cfg)]
        for cut in (1, 2, 5, len(frames)):
            estimate = bearing_csi_estimator(geom, cfg)
            got = [est for lo in range(0, len(frames), cut)
                   for est in estimate_runs(estimate, frames[lo: lo + cut], cfg)]
            assert got == want, cut

    @pytest.mark.parametrize("algorithm", aoa.ALGORITHMS)
    def test_refused_block_leaves_the_window_untouched(self, algorithm, square_geom, ula_geom,
                                                       chan80, chan20, rng):
        # SpotFi's sub-array of 100 subcarriers fits 80 MHz but not 20 MHz
        smoothing = {"smoothing": (2, 100)} if algorithm == "spotfi" else {}
        geom, cfg, frames = self._stream(algorithm, [chan80] * 8, square_geom, ula_geom, rng,
                                         **smoothing)
        refused = [(chan80, frames[4].csi[None, 1:], DimensionMismatchError, "antennas")]
        if algorithm == "spotfi":
            narrow = single_path_frame(geom, chan20, 0.3, snr_db=15.0, seed=1)
            refused.append((chan20, narrow.csi[None], ConfigurationError, "smoothing dims"))
        want = estimate_runs(bearing_csi_estimator(geom, cfg), frames, cfg)
        estimate = bearing_csi_estimator(geom, cfg)
        got = estimate_runs(estimate, frames[:4], cfg)
        for chanspec, csi, error, match in refused:
            with pytest.raises(error, match=match):
                estimate(chanspec, csi)
        assert got + estimate_runs(estimate, frames[4:], cfg) == want


class TestEstimateBearing:
    def test_flat_profile_tie_breaks_to_first_grid_point(self, cfg):
        profile = Profile2D(values=np.ones((5, 2)), theta_grid=np.linspace(0, 1, 5),
                            dist_grid=np.arange(2.0))
        result = estimate_bearing(profile, -40.0, cfg)
        assert result.theta == pytest.approx(0.0)

    def test_monotone_rescaling_keeps_bearing(self, square_geom, chan80, cfg):
        frame = single_path_frame(square_geom, chan80, 0.6, snr_db=10.0, seed=3)
        spectrum = music_spectrum([frame], square_geom, cfg)
        a = estimate_bearing(spectrum, -40.0, cfg)
        b = estimate_bearing(spectrum * 42.0, -40.0, cfg)
        c = estimate_bearing(spectrum ** 2, -40.0, cfg)
        assert a.theta == b.theta == c.theta

    def test_spectrum_length_checked(self, cfg):
        with pytest.raises(DimensionMismatchError):
            estimate_bearing(np.ones(7), -40.0, cfg)


class TestTriangulate:
    def test_exact_intersection(self):
        target = (3.0, 4.0)
        p1, p2 = Pose2D(0.0, 4.0, 0.2), Pose2D(3.0, 0.0, -0.9)
        obs = [(p, ground_truth_bearing(p, target)) for p in (p1, p2)]
        point, residual = triangulate(obs)
        assert np.allclose(point, target, atol=1e-9)
        assert residual == pytest.approx(0.0, abs=1e-9)

    def test_needs_two_observations(self):
        with pytest.raises(DegenerateGeometryError):
            triangulate([(Pose2D(0, 0, 0), 0.3)])

    def test_parallel_rays_rejected(self):
        obs = [(Pose2D(0, 0, 0), 0.5), (Pose2D(1, 0, 0), 0.5)]
        with pytest.raises(DegenerateGeometryError):
            triangulate(obs)

    def test_noisy_bearings_converge(self, rng):
        target = np.array([4.0, 2.0])
        poses = [Pose2D(x, y, rng.uniform(-np.pi, np.pi))
                 for x, y in rng.uniform(-5, 10, (40, 2))
                 if np.hypot(x - 4, y - 2) > 1.0]
        obs = [(p, ground_truth_bearing(p, target) + rng.normal(0, 0.05)) for p in poses]
        point, _ = triangulate(obs)
        assert np.linalg.norm(point - target) < 0.3


    @pytest.mark.parametrize("k,pose,bearing", [
        (0, Pose2D(0.0, 0.0, 0.0), np.nan), (1, Pose2D(1.0, 0.0, 0.0), np.inf),
        (1, Pose2D(np.nan, 0.0, 0.0), 0.3), (1, Pose2D(1.0, -np.inf, 0.0), 0.3),
        (1, Pose2D(1.0, 0.0, np.nan), 0.3)])
    def test_non_finite_observation_refused(self, k, pose, bearing):
        obs = [(Pose2D(0.0, 0.0, 0.0), 0.1), (Pose2D(1.0, 0.0, 0.0), 0.3),
               (Pose2D(0.0, 1.0, 0.0), 1.0)]
        obs[k] = (pose, bearing)
        with pytest.raises(ConfigurationError,
                           match=f"^observation {k}: bearing and pose must be finite, got "):
            triangulate(obs)


class TestProfilePgm:
    def test_round_trip_reconstructs_unique_peak_exactly(self, tmp_path, rng):
        # argmax survives 8-bit scaling whenever the peak is unique by
        # more than 1/255 of the maximum (the documented condition)
        values = rng.uniform(0.0, 0.9, (40, 30))
        values[17, 4] = 1.0
        profile = Profile2D(values=values, theta_grid=np.linspace(-1, 1, 40),
                            dist_grid=np.linspace(0, 10, 30))
        path = tmp_path / "u.pgm"
        write_profile_pgm(path, profile, {"note": "test"})
        image, theta, dist, meta = read_profile_pgm(path)
        assert image.shape == profile.values.shape
        assert np.allclose(theta, profile.theta_grid, atol=1e-6)
        assert np.allclose(dist, profile.dist_grid, atol=1e-6)
        assert meta["note"] == "test"
        assert np.unravel_index(np.argmax(image), image.shape) == (17, 4)

    def test_bartlett_peak_plateau_preserved(self, tmp_path, square_geom, chan80, cfg):
        # a real profile's peak can be locally flat: the reconstructed
        # argmax must land within the 1/255-wide plateau of the true peak
        frame = single_path_frame(square_geom, chan80, np.radians(12.0), 20e-9)
        profile = bartlett_profile(frame, square_geom, cfg)
        path = tmp_path / "p.pgm"
        write_profile_pgm(path, profile)
        image, _, _, _ = read_profile_pgm(path)
        ti, di = np.unravel_index(np.argmax(image), image.shape)
        assert profile.values[ti, di] >= profile.values.max() - 1.0 / 255.0

    def test_constant_profile_uniform_gray(self, tmp_path):
        profile = Profile2D(values=np.full((6, 5), 0.7), theta_grid=np.arange(6.0),
                            dist_grid=np.arange(5.0))
        path = tmp_path / "c.pgm"
        write_profile_pgm(path, profile)
        image, _, _, _ = read_profile_pgm(path)
        assert np.all(image == 255)


def test_spotfi_refuses_antennas_too_close_to_tell_apart():
    # distinct to ArrayGeometry (1e-10 m apart), equal to the ULA check
    geom = ArrayGeometry(positions=[[0.0, 0.0], [1e-10, 0.0], [2e-10, 0.0]])
    with pytest.raises(UnsupportedGeometryError, match="^array spacing must be non-zero$"):
        bearing_csi_estimator(geom, AoaConfig(algorithm="spotfi"))


class TestOtherBandwidths:
    @pytest.mark.parametrize("channel,bw,n_sub", [(36, 20, 52), (38, 40, 108)])
    def test_estimators_on_narrow_channels(self, channel, bw, n_sub):
        from csisense import ChannelSpec, wavelength

        chan = ChannelSpec(channel, bw)
        geom = ArrayGeometry.square(0.45 * wavelength(chan))
        cfg = AoaConfig()
        theta, tau = np.radians(-25.0), 22e-9
        frame = single_path_frame(geom, chan, theta, tau)
        assert frame.n_sub == n_sub
        profile = bartlett_profile(frame, geom, cfg)
        ti, di = profile.argmax_cell()
        assert abs(wrap_angle(profile.theta_grid[ti] - theta)) <= np.radians(1.0)
        # range resolution scales with bandwidth: allow a few cells at 20 MHz
        tol_m = 0.25 if bw >= 40 else 1.0
        assert abs(profile.dist_grid[di] - SPEED_OF_LIGHT * tau) <= tol_m
        spectrum = music_spectrum([frame], geom, cfg)
        k = int(np.argmax(spectrum))
        assert abs(wrap_angle(cfg.theta_grid[k] - theta)) <= np.radians(1.0)

    def test_spotfi_on_40mhz_ula(self):
        from csisense import ChannelSpec, wavelength

        chan = ChannelSpec(38, 40)
        ula = ArrayGeometry.uniform_linear(4, wavelength(chan) / 2, axis="y")
        cfg = AoaConfig(theta_grid=np.radians(np.arange(-89.0, 90.0)))
        theta, tau = np.radians(33.0), 30e-9
        frame = single_path_frame(ula, chan, theta, tau)
        top = spotfi_estimate(frame, ula, cfg)[0]
        assert abs(wrap_angle(top.theta - theta)) <= np.radians(1.0)
        assert abs(top.tau - tau) <= 0.5 / SPEED_OF_LIGHT
