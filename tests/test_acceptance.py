"""Acceptance suite: one test per release criterion, each printing a
PASS line with its runtime when it holds.

Run with `pytest tests/test_acceptance.py -v -s` to see the report.
"""

import time

import numpy as np
import pytest

from csisense import (
    ApSpec,
    ArrayGeometry,
    CalibrationDataset,
    ChannelSpec,
    CsiFrame,
    PathComponent,
    Pose2D,
    SimScenario,
    apply_calibration,
    apply_calibration_block,
    calibrate,
    ground_truth_bearing,
    rssi_at,
    synth_frame,
    synth_trajectory,
    wavelength,
    wrap_angle,
)
from csisense.aoa import (
    AoaConfig,
    average_profiles,
    bartlett_profile,
    bearing_csi_estimator,
    estimate_bearing,
    music_spectrum,
    spotfi_estimate,
    triangulate,
)
from csisense.codec import CodecError, decode_frame, encode_frame
from csisense.core import SPEED_OF_LIGHT
from csisense.scanner import ScanPolicy, run_walkthrough
from csisense.scenario import disc_trajectory, loop_trajectory, random_bias
from csisense.cli import main as cli_main

CHAN = ChannelSpec(155, 80)
GEOM = ArrayGeometry.square(0.45 * wavelength(CHAN))
TX = np.array([0.0, 0.0])


def _report(name: str, started: float, budget_s: float | None = None) -> None:
    elapsed = time.perf_counter() - started
    budget = "" if budget_s is None else f" / budget {budget_s:.0f} s"
    print(f"[PASS] {name} ({elapsed:.1f} s{budget})")
    if budget_s is not None:
        assert elapsed < budget_s, f"{name} exceeded its runtime budget"


def _random_valid_frame(rng) -> CsiFrame:
    chanspec = ChannelSpec(int(rng.integers(36, 170)), int(rng.choice([20, 40, 80])))
    n_rx, n_tx = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    shape = (n_rx, n_tx, chanspec.n_sub)
    csi = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(np.complex64)
    return CsiFrame(
        csi=csi,
        rssi_dbm=float(rng.integers(-110, 10)),
        source_mac=bytes(rng.integers(0, 256, 6, dtype=np.uint8)),
        seq=int(rng.integers(0, 65536)),
        chanspec=chanspec,
        timestamp_ns=int(rng.integers(0, 2 ** 63)),
    )


@pytest.fixture(scope="module")
def calibration_run():
    """Shared criterion-2 setup: bias, dataset, recovered calibration."""
    truth = random_bias(CHAN, 4, seed=202)
    scen = SimScenario(
        tx_location=TX,
        chanspec=CHAN,
        trajectory=disc_trajectory(TX, 5.0, 200, seed=202),
        true_calibration=truth,
        snr_db=30.0,
        per_packet_phase=True,
        seed=202,
    )
    started = time.perf_counter()
    pairs = synth_trajectory(scen, GEOM)
    dataset = CalibrationDataset(pairs=pairs, tx_location=TX, geom=GEOM, chanspec=CHAN)
    result = calibrate(dataset)
    return truth, result, time.perf_counter() - started


def test_criterion_1_codec_round_trip_and_fuzz():
    started = time.perf_counter()
    rng = np.random.default_rng(1001)
    for _ in range(10_000):
        frame = _random_valid_frame(rng)
        assert decode_frame(encode_frame(frame)) == frame
    blob = rng.integers(0, 256, 8_000_000, dtype=np.uint8).tobytes()
    lengths = rng.integers(0, 300, 100_000)
    offset = 0
    for n in lengths:
        buf = blob[offset:offset + int(n)]
        offset = (offset + int(n)) % (len(blob) - 300)
        try:
            decode_frame(buf)
        except CodecError:
            pass  # structured error: exactly what the contract demands
    _report("criterion 1: codec round-trip (1e4 frames) + fuzz (1e5 buffers)",
            started, budget_s=30.0)


def test_criterion_2_calibration_recovery(calibration_run):
    truth, result, setup_elapsed = calibration_run
    # the runtime budget covers dataset synthesis plus the calibration
    started = time.perf_counter() - setup_elapsed
    est_bias_diff = -result.matrix.phase  # stored matrix is the correction
    true_diff = truth.phase - truth.phase[0:1, :]
    err = np.abs(wrap_angle(est_bias_diff[1:] - true_diff[1:]))
    median_deg = float(np.degrees(np.median(err)))
    assert median_deg < 2.0, f"median inter-antenna error {median_deg:.2f} deg"
    assert result.spectral_gap >= 3.0
    assert result.fine_objective <= result.coarse_objective
    _report(
        f"criterion 2: calibration recovery (median {median_deg:.2f} deg, "
        f"gap {result.spectral_gap:.1f})",
        started, budget_s=60.0,
    )


def test_criterion_3_calibrated_vs_uncalibrated_bearings(calibration_run):
    started = time.perf_counter()
    truth, result, _setup_elapsed = calibration_run
    scen = SimScenario(
        tx_location=TX,
        chanspec=CHAN,
        trajectory=disc_trajectory(TX, 5.0, 500, seed=303),
        true_calibration=truth,
        snr_db=30.0,
        per_packet_phase=True,
        seed=303,
    )
    held_out = synth_trajectory(scen, GEOM)
    cfg = AoaConfig()

    def median_error(calibrated: bool) -> float:
        errors = []
        for pose, frame in held_out:
            used = apply_calibration(result.matrix, frame) if calibrated else frame
            est = estimate_bearing(bartlett_profile(used, GEOM, cfg),
                                   frame.rssi_dbm, cfg)
            truth_theta = ground_truth_bearing(pose, TX)
            errors.append(abs(wrap_angle(est.theta - truth_theta)))
        return float(np.degrees(np.median(errors)))

    with_cal = median_error(True)
    without_cal = median_error(False)
    assert with_cal < 1.0, f"calibrated median {with_cal:.2f} deg"
    assert without_cal > 30.0, f"uncalibrated median {without_cal:.2f} deg"

    # the same bounds on the path `csisense bearing` runs: the block calibrated
    # with one multiply, then the stream estimator at window 1
    csi = np.stack([frame.csi for _, frame in held_out])
    truth_theta = np.array([ground_truth_bearing(pose, TX) for pose, _ in held_out])
    calibrated, finite = apply_calibration_block(result.matrix, CHAN, csi)
    assert finite == len(held_out)

    def shipped_median_error(block: np.ndarray) -> float:
        peaks, _strength = bearing_csi_estimator(GEOM, AoaConfig(window=1))(CHAN, block)
        errors = np.abs(wrap_angle(cfg.theta_grid[peaks] - truth_theta))
        return float(np.degrees(np.median(errors)))

    shipped_with_cal = shipped_median_error(calibrated)
    shipped_without_cal = shipped_median_error(csi)
    assert shipped_with_cal < 1.0, f"shipped calibrated median {shipped_with_cal:.2f} deg"
    assert shipped_without_cal > 30.0, (
        f"shipped uncalibrated median {shipped_without_cal:.2f} deg")
    _report(
        f"criterion 3: bearings {with_cal:.2f} deg calibrated vs "
        f"{without_cal:.0f} deg uncalibrated (shipped path {shipped_with_cal:.2f} vs "
        f"{shipped_without_cal:.0f} deg)",
        started, budget_s=60.0,
    )


def test_criterion_4_estimator_correctness():
    started = time.perf_counter()
    cfg = AoaConfig()
    tau = 10e-9
    for deg in range(-170, 181, 10):
        theta = np.radians(float(deg))
        frame = synth_frame([PathComponent(aoa=theta, delay_s=tau)], GEOM, CHAN)
        profile = bartlett_profile(frame, GEOM, cfg)
        ti, di = profile.argmax_cell()
        assert abs(wrap_angle(profile.theta_grid[ti] - theta)) <= np.radians(1.0)
        assert abs(profile.dist_grid[di] - SPEED_OF_LIGHT * tau) <= 0.25
        spectrum = music_spectrum([frame], GEOM, cfg)
        k = int(np.argmax(spectrum))
        assert abs(wrap_angle(cfg.theta_grid[k] - theta)) <= np.radians(1.0)
        assert spectrum[k] >= 1e3 * np.median(spectrum)

    ula = ArrayGeometry.uniform_linear(4, wavelength(CHAN) / 2.0, axis="y")
    spot_cfg = AoaConfig(theta_grid=np.radians(np.arange(-89.0, 90.0)), n_sources=2)
    th1, tau1 = np.radians(5.0), 10e-9
    th2, tau2 = np.radians(40.0), 10e-9 + 9e-9  # 35 deg / 2.7 m separation
    frame = synth_frame(
        [PathComponent(aoa=th1, delay_s=tau1, amplitude=1.0),
         PathComponent(aoa=th2, delay_s=tau2, amplitude=0.55)],
        ula, CHAN,
    )
    paths = spotfi_estimate(frame, ula, spot_cfg)
    for th, tau_true in ((th1, tau1), (th2, tau2)):
        best = min(paths, key=lambda p: abs(wrap_angle(p.theta - th)))
        assert abs(wrap_angle(best.theta - th)) <= np.radians(1.0)
        assert abs(best.tau - tau_true) <= 0.25 / SPEED_OF_LIGHT
    _report("criterion 4: Bartlett/MUSIC full-circle sweep + SpotFi two-path",
            started, budget_s=120.0)


def test_criterion_5_averaging_suppresses_reflections():
    started = time.perf_counter()
    cfg = AoaConfig(theta_grid=np.radians(np.arange(-87.0, 90.1, 3.0)),
                    dist_grid=np.arange(0.0, 15.0 + 1e-9, 0.75))
    th_d, tau_d = np.radians(20.0), 15e-9
    th_r, tau_r = np.radians(-60.0), 35e-9
    rel = 10 ** (-3.0 / 20.0)  # 3 dB below the direct path
    ti = int(np.argmin(np.abs(cfg.theta_grid - th_d)))
    di = int(np.argmin(np.abs(cfg.dist_grid - SPEED_OF_LIGHT * tau_d)))
    rng = np.random.default_rng(505)
    trials, window = 1000, 20
    wrong_packets = 0
    good_windows = 0
    for _ in range(trials):
        profiles = []
        for _ in range(window):
            phase = rng.uniform(0.0, 2.0 * np.pi)
            frame = synth_frame(
                [PathComponent(aoa=th_d, delay_s=tau_d),
                 PathComponent(aoa=th_r, delay_s=tau_r,
                               amplitude=rel * np.exp(1j * phase))],
                GEOM, CHAN, snr_db=10.0, rng_seed=rng,
            )
            profile = bartlett_profile(frame, GEOM, cfg)
            profiles.append(profile)
            ci, cj = profile.argmax_cell()
            if abs(ci - ti) > 1 or abs(cj - di) > 1:
                wrong_packets += 1
        ai, aj = average_profiles(profiles, window).argmax_cell()
        if abs(ai - ti) <= 1 and abs(aj - di) <= 1:
            good_windows += 1
    wrong_frac = wrong_packets / (trials * window)
    good_frac = good_windows / trials
    assert wrong_frac >= 0.10, f"per-packet wrong fraction {wrong_frac:.2%}"
    assert good_frac >= 0.99, f"averaged-window correct fraction {good_frac:.2%}"
    _report(
        f"criterion 5: averaging ({wrong_frac:.0%} packets wrong, "
        f"{good_frac:.1%} windows correct)",
        started,
    )


def test_criterion_6_triangulation_case_studies():
    started = time.perf_counter()
    rng = np.random.default_rng(606)
    sigma = np.radians(5.3)

    # (a) kidnapped robot: 4 fixed sensors in 5 x 10 m localize a target
    sensors = [Pose2D(0.0, 0.0, 0.3), Pose2D(10.0, 0.0, 1.7),
               Pose2D(10.0, 5.0, -2.0), Pose2D(0.0, 5.0, 2.8)]
    errors = []
    for _ in range(100):
        target = np.array([rng.uniform(1.0, 9.0), rng.uniform(1.0, 4.0)])
        obs = []
        for k in range(50):
            sensor = sensors[k % 4]
            bearing = ground_truth_bearing(sensor, target) + rng.normal(0.0, sigma)
            obs.append((sensor, bearing))
        estimate, _ = triangulate(obs)
        errors.append(float(np.linalg.norm(estimate - target)))
    median_error = float(np.median(errors))
    assert median_error <= 1.2, f"median localization error {median_error:.2f} m"

    # (b) IoT mapping: 3 transmitters in 10 x 5 m from a robot path
    transmitters = [np.array([2.0, 1.0]), np.array([5.0, 4.0]), np.array([8.0, 2.0])]
    all_within = 0
    trials = 100
    for _ in range(trials):
        poses = []
        while len(poses) < 30:
            x, y = rng.uniform(0.5, 9.5), rng.uniform(0.5, 4.5)
            if all(np.hypot(x - t[0], y - t[1]) > 0.8 for t in transmitters):
                poses.append(Pose2D(x, y, rng.uniform(-np.pi, np.pi)))
        ok = True
        for tx in transmitters:
            obs = [(p, ground_truth_bearing(p, tx) + rng.normal(0.0, sigma))
                   for p in poses]
            estimate, _ = triangulate(obs)
            if np.linalg.norm(estimate - tx) > 2.0:
                ok = False
        all_within += ok
    within_frac = all_within / trials
    assert within_frac >= 0.90, f"IoT within-2m fraction {within_frac:.0%}"
    _report(
        f"criterion 6: triangulation (robot median {median_error:.2f} m, "
        f"IoT {within_frac:.0%} within 2 m)",
        started, budget_s=60.0,
    )


def test_criterion_7_scanner_behavior():
    started = time.perf_counter()
    channels = [ChannelSpec(c, 80) for c in (42, 58, 106, 122)]
    aps = [ApSpec(location=np.array([15.0 + 22.5 * k, 2.0]), chanspec=channels[k],
                  tx_power_dbm=-30.0, mac=bytes([2, 0, 0, 0, 9, k]))
           for k in range(4)]
    policy = ScanPolicy()
    scen = SimScenario(tx_location=TX, chanspec=channels[0],
                       trajectory=loop_trajectory(0.0, 0.0, 90.0, 4.0, laps=2, n=4800),
                       aps=aps, snr_db=None, seed=707)
    result = run_walkthrough(scen, policy)
    assert result.fraction_tuned_to_nearest >= 0.9
    expected_downtime = (result.switch_count * policy.switch_cost_ms
                         + result.scan_count * len(channels) * policy.dwell_ms) * 1_000_000
    assert result.downtime_ns == expected_downtime
    assert policy.switch_cost_ms <= 500

    # oscillation: two equal-strength APs, 1e4 steps, zero switches
    equal_aps = [ApSpec(location=np.array([0.0, 5.0]), chanspec=channels[0],
                        tx_power_dbm=-30.0, mac=bytes([2, 0, 0, 0, 8, 1])),
                 ApSpec(location=np.array([0.0, -5.0]), chanspec=channels[1],
                        tx_power_dbm=-30.0, mac=bytes([2, 0, 0, 0, 8, 2]))]
    stationary = [(int(k * 1e9), Pose2D(0.0, 0.0, 0.0)) for k in range(1, 10_001)]
    still = SimScenario(tx_location=np.array([1.0, 0.0]), chanspec=channels[0],
                        trajectory=stationary, aps=equal_aps, snr_db=None, seed=708)
    osc = run_walkthrough(still, policy)
    assert osc.switch_count == 0
    _report(
        f"criterion 7: scanner (tuned-to-nearest {result.fraction_tuned_to_nearest:.2f}, "
        f"{result.switch_count} switches, 0 oscillations)",
        started,
    )


class TestCriterion8GaugeAndInvariance:
    def test_global_phase_invariance_of_estimators(self):
        started = time.perf_counter()
        cfg = AoaConfig()
        frame = synth_frame([PathComponent(aoa=0.7, delay_s=20e-9)], GEOM, CHAN,
                            snr_db=20.0, rng_seed=808)
        rotated = synth_frame([PathComponent(aoa=0.7, delay_s=20e-9)], GEOM, CHAN,
                              snr_db=20.0, rng_seed=808)
        rotated.csi = (rotated.csi.astype(np.complex128) * np.exp(1j * 2.1)).astype(
            np.complex64)
        p_a = bartlett_profile(frame, GEOM, cfg)
        p_b = bartlett_profile(rotated, GEOM, cfg)
        assert np.allclose(p_a.values, p_b.values, atol=1e-4)
        assert p_a.argmax_cell() == p_b.argmax_cell()
        s_a = music_spectrum([frame], GEOM, cfg)
        s_b = music_spectrum([rotated], GEOM, cfg)
        assert np.argmax(s_a) == np.argmax(s_b)

        ula = ArrayGeometry.uniform_linear(4, wavelength(CHAN) / 2.0, axis="y")
        spot_cfg = AoaConfig(theta_grid=np.radians(np.arange(-89.0, 90.0)))
        f1 = synth_frame([PathComponent(aoa=0.3, delay_s=15e-9)], ula, CHAN)
        f2 = synth_frame([PathComponent(aoa=0.3, delay_s=15e-9)], ula, CHAN)
        f2.csi = (f2.csi.astype(np.complex128) * np.exp(1j * 1.0)).astype(np.complex64)
        top1 = spotfi_estimate(f1, ula, spot_cfg)[0]
        top2 = spotfi_estimate(f2, ula, spot_cfg)[0]
        assert top1.theta == top2.theta and top1.tau == top2.tau
        _report("criterion 8a: global-phase invariance of all estimators", started)

    def test_monotone_rescaling_invariance(self):
        started = time.perf_counter()
        cfg = AoaConfig()
        frame = synth_frame([PathComponent(aoa=-1.1, delay_s=30e-9)], GEOM, CHAN,
                            snr_db=10.0, rng_seed=809)
        spectrum = music_spectrum([frame], GEOM, cfg)
        base = estimate_bearing(spectrum, -40.0, cfg)
        for transform in (lambda s: 3.0 * s, lambda s: s ** 3, np.sqrt,
                          lambda s: s + s.max()):
            assert estimate_bearing(transform(spectrum), -40.0, cfg).theta == base.theta
        _report("criterion 8b: argmax invariance under monotone rescaling", started)

    def test_closed_form_phase_bound(self):
        # the calibration phase angle(u0) is the exact optimum over
        # unit-modulus x: |u0^H x| <= ||u0||_1 = |u0^H exp(j*phi_coarse)|
        started = time.perf_counter()
        rng = np.random.default_rng(810)
        from csisense.calibration import coarse_calibration

        snaps = [rng.standard_normal((4, 52)) + 1j * rng.standard_normal((4, 52))
                 for _ in range(30)]
        coarse = coarse_calibration(snaps)
        n = 4 * 52
        u0 = coarse.u0
        l1 = float(np.sum(np.abs(u0)))
        best = float(np.abs(np.vdot(u0, np.exp(1j * coarse.phi_coarse.ravel()))))
        assert abs(best - l1) <= 1e-6 * l1
        for _ in range(10):
            x = np.exp(1j * rng.uniform(-np.pi, np.pi, n))
            assert float(np.abs(np.vdot(u0, x))) <= best * (1 + 1e-6)
            nudged = coarse.phi_coarse.ravel() + rng.normal(0, 0.1, n)
            assert float(np.abs(np.vdot(u0, np.exp(1j * nudged)))) <= best * (1 + 1e-6)
        _report("criterion 8c: closed-form calibration phase bound to 1e-6 relative",
                started)

    def test_cli_determinism(self, tmp_path):
        started = time.perf_counter()
        scenario = tmp_path / "scenario.ini"
        scenario.write_text(CLI_SCENARIO)
        scan_scenario = tmp_path / "scan.ini"
        scan_scenario.write_text(CLI_SCAN_SCENARIO)
        outputs = {}
        for run in ("one", "two"):
            d = tmp_path / run
            d.mkdir()
            cap, poses = d / "c.wcap", d / "p.csv"
            cal, bearings = d / "cal.txt", d / "b.csv"
            frames_csv, walk = d / "f.csv", d / "w.csv"
            pgm = d / "prof.pgm"
            assert cli_main(["--seed", "11", "simulate", "--scenario", str(scenario),
                             "--capture", str(cap), "--poses", str(poses)]) == 0
            assert cli_main(["decode", "--capture", str(cap),
                             "--csv", str(frames_csv)]) == 0
            assert cli_main(["calibrate", "--capture", str(cap), "--poses", str(poses),
                             "--tx", "0,0", "--geometry", CLI_GEOMETRY,
                             "--out", str(cal)]) == 0
            assert cli_main(["bearing", "--capture", str(cap),
                             "--calibration", str(cal), "--out", str(bearings)]) == 0
            assert cli_main(["--seed", "12", "scan", "--scenario", str(scan_scenario),
                             "--out", str(walk)]) == 0
            assert cli_main(["profile", "--capture", str(cap), "--index", "2",
                             "--calibration", str(cal), "--out", str(pgm)]) == 0
            outputs[run] = {
                p.name: p.read_bytes()
                for p in (cap, poses, cal, bearings, frames_csv, walk, pgm,
                          d / "prof.pgm.txt")
            }
        assert outputs["one"] == outputs["two"], "CLI outputs differ between runs"
        _report("criterion 8d: CLI determinism (byte-identical reruns)", started)


CLI_GEOMETRY = "0,0; 0.02336,0; 0.02336,0.02336; 0,0.02336"

CLI_SCENARIO = """
[channel]
channel = 155
bandwidth = 80

[transmitter]
x = 0.0
y = 0.0
power_dbm = -30

[array]
layout = square
spacing_m = 0.02336

[simulation]
seed = 5
snr_db = 30
per_packet_phase = true
bias = random

[trajectory]
kind = disc
n = 60
radius_m = 5.0
rate_hz = 1.0
"""

CLI_SCAN_SCENARIO = """
[channel]
channel = 42
bandwidth = 80

[transmitter]
x = 0.0
y = 0.0

[array]
layout = square
spacing_m = 0.02336

[trajectory]
kind = loop
x0 = 0
y0 = 0
length_m = 90
width_m = 4
laps = 2
n = 1200

[ap.1]
x = 15
y = 2
channel = 42
bandwidth = 80
power_dbm = -30

[ap.2]
x = 37.5
y = 2
channel = 58
bandwidth = 80
power_dbm = -30

[ap.3]
x = 60
y = 2
channel = 106
bandwidth = 80
power_dbm = -30

[ap.4]
x = 82.5
y = 2
channel = 122
bandwidth = 80
power_dbm = -30
"""
