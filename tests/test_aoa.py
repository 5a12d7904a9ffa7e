import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from csisense import (
    ArrayGeometry,
    ChannelSpec,
    ConfigurationError,
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
    ProfileAverager,
    UnsupportedGeometryError,
    average_profiles,
    bartlett_profile,
    default_dist_grid,
    estimate_bearing,
    interpolate_subcarriers,
    music_spectrum,
    read_profile_pgm,
    spotfi_estimate,
    transpose_for_aod,
    triangulate,
    write_profile_pgm,
)
from csisense.core import SPEED_OF_LIGHT, SUBCARRIER_SPACING_HZ

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def cfg():
    return AoaConfig()


def single_path_frame(geom, chan, theta, tau=10e-9, snr_db=None, seed=None):
    return synth_frame([PathComponent(aoa=theta, delay_s=tau)], geom, chan,
                       snr_db=snr_db, rng_seed=seed)


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


class TestBartlettKernels:
    @pytest.mark.parametrize("channel,bw", [(36, 20), (38, 40), (155, 80)])
    def test_matches_naive_double_sum(self, channel, bw):
        chan = ChannelSpec(channel, bw)
        geom = ArrayGeometry.square(0.45 * wavelength(chan))
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
        grids = [default_dist_grid(), np.arange(0.0, 12.0 + 1e-9, 0.5)]
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

    def test_cached_kernels_are_read_only(self, chan80):
        key = default_dist_grid().tobytes()
        for kernel in (aoa._range_phasors(chan80, key), aoa._delay_steering(122, key)):
            with pytest.raises(ValueError):
                kernel[0, 0] = 0.0


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
                    aoa._spotfi_pseudospectrum(frame, geom, cfg, 0))

        cold = {}
        for case in cases:
            aoa._steering_kernel.cache_clear()
            cold[case] = outputs(*case)
        for _ in range(2):
            for case in cases:
                for warm, ref in zip(outputs(*case), cold[case]):
                    assert np.array_equal(warm, ref)

    def test_cached_steering_equals_uncached_and_is_read_only(self, square_geom, chan80):
        theta = AoaConfig().theta_grid
        lam = wavelength(chan80)
        cached = aoa._steering(theta, square_geom.positions, lam)
        assert np.array_equal(cached, aoa.steering_matrix(theta, square_geom, lam))
        assert aoa._steering(theta, square_geom.positions, lam) is cached
        with pytest.raises(ValueError):
            cached[0, 0] = 0.0


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

    def test_window_rejected(self):
        AoaConfig(algorithm="spotfi", window=1)
        with pytest.raises(ConfigurationError, match="window"):
            AoaConfig(algorithm="spotfi", window=2)

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
        pseudo = aoa._spotfi_pseudospectrum(frame, ula_geom, cfg, 0)
        ref, dim = spotfi_einsum_reference(frame, ula_geom, cfg)
        # compare denominators dim - ||E_s^H v||^2, whose rounding scales with dim
        assert np.max(np.abs(1.0 / pseudo - 1.0 / ref)) <= 1e-12 * dim

    def test_alternating_grids_and_smoothing_match_cold(self, ula_geom, chan80):
        frame = single_path_frame(ula_geom, chan80, 0.3, snr_db=20.0, seed=2)
        theta = np.radians(np.arange(-89.0, 90.0, 3.0))
        cfgs = [AoaConfig(theta_grid=theta),
                AoaConfig(theta_grid=theta, dist_grid=np.arange(0.0, 12.0 + 1e-9, 0.5)),
                AoaConfig(theta_grid=theta, smoothing=(3, 60))]
        cold = []
        for cfg in cfgs:
            aoa._delay_steering.cache_clear()
            cold.append(aoa._spotfi_pseudospectrum(frame, ula_geom, cfg, 0))
        for _ in range(2):
            for cfg, ref in zip(cfgs, cold):
                assert np.array_equal(aoa._spotfi_pseudospectrum(frame, ula_geom, cfg, 0), ref)

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
        idx = subcarrier_indices(chan80)
        n_ant_sub, n_sub_sub = aoa.spotfi_smoothing_dims(4, int(idx[-1] - idx[0] + 1), cfg)
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
        pseudo = aoa._spotfi_pseudospectrum(frame, ula_geom, cfg, 0)
        ref, _dim = spotfi_einsum_reference(frame, ula_geom, cfg)
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
        pseudo = aoa._spotfi_pseudospectrum(frame, ula_geom, cfg, 0)
        ref, dim = spotfi_einsum_reference(frame, ula_geom, cfg)
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
        first = aoa._spotfi_pseudospectrum(frame, ula_geom, cfg, 0)
        second = aoa._spotfi_pseudospectrum(frame, ula_geom, cfg, 0)
        after = np.random.get_state()
        assert np.array_equal(first, second)
        assert before[0] == after[0] and np.array_equal(before[1], after[1])
        assert before[2:] == after[2:]


def spotfi_einsum_reference(frame, geom, cfg):
    """SpotFi pseudospectrum with the two einsum contractions it used to have."""
    csi_full = interpolate_subcarriers(frame.csi[:, 0, :].astype(np.complex128),
                                       frame.chanspec)
    n_rx, n_cols = csi_full.shape
    n_ant_sub, n_sub_sub = 2, n_cols // 2
    windows = np.lib.stride_tricks.sliding_window_view(csi_full, (n_ant_sub, n_sub_sub))
    snapshots = windows.reshape(-1, n_ant_sub * n_sub_sub).T
    dim = n_ant_sub * n_sub_sub
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

    def test_averager_matches_batch(self, square_geom, chan80, cfg):
        frames = [single_path_frame(square_geom, chan80, -0.2, snr_db=5.0, seed=s)
                  for s in range(6)]
        profiles = [bartlett_profile(f, square_geom, cfg) for f in frames]
        averager = ProfileAverager(window=4)
        out = None
        for p in profiles:
            out = averager.push(p)
        batch = average_profiles(profiles, 4)
        assert np.allclose(out.values, batch.values)

    def test_running_sum_matches_batch_after_1000_pushes(self, rng):
        theta, dist = np.radians(np.arange(-170.0, 181.0, 30.0)), np.arange(0.0, 5.0, 0.5)
        profiles = []
        for _ in range(1000):
            values = rng.random((theta.size, dist.size)) ** 8  # cells spanning decades
            profiles.append(Profile2D(values / values.max(), theta, dist))
        averager = ProfileAverager(window=8)
        for k, p in enumerate(profiles, start=1):
            out = averager.push(p)
            if k % 100 == 0:
                batch = average_profiles(profiles[:k], 8)
                assert np.max(np.abs(out.values - batch.values)) <= 1e-12
        assert np.all(out.values >= 0)

    def test_averager_rejects_grid_mismatch_and_keeps_state(self, square_geom, chan80, cfg):
        frames = [single_path_frame(square_geom, chan80, 0.5, snr_db=5.0, seed=s)
                  for s in range(3)]
        profiles = [bartlett_profile(f, square_geom, cfg) for f in frames]
        other = bartlett_profile(frames[0], square_geom,
                                 AoaConfig(dist_grid=np.arange(0.0, 10.0, 0.5)))
        averager = ProfileAverager(window=3)
        averager.push(profiles[0])
        with pytest.raises(DimensionMismatchError):
            averager.push(other)
        averager.push(profiles[1])
        out = averager.push(profiles[2])
        assert np.allclose(out.values, average_profiles(profiles, 3).values, atol=1e-12)

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


class TestTransposeForAod:
    def test_aod_estimable_from_tx_axis(self, square_geom, chan80):
        cfg = AoaConfig()
        aod = np.radians(31.0)
        frame = synth_frame([PathComponent(aoa=0.9, aod=aod, delay_s=10e-9)],
                            square_geom, chan80, tx_geom=square_geom)
        swapped = transpose_for_aod(frame, rx_index=0)
        assert swapped.n_rx == 4 and swapped.n_tx == 1
        spectrum = music_spectrum([swapped], square_geom, cfg)
        k = int(np.argmax(spectrum))
        assert abs(wrap_angle(cfg.theta_grid[k] - aod)) <= np.radians(1.0)


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
