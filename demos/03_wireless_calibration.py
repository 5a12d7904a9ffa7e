"""Wireless phase calibration, end to end against ground truth.

Every receiver carries per-antenna, per-subcarrier phase offsets that
scramble bearing estimates.  This demo injects a known random bias into
simulated data, recovers it from nothing but robot poses and raw frames,
and shows the before/after bearing accuracy.

Run:  python3 demos/03_wireless_calibration.py
"""

import numpy as np

from csisense import (
    AoaConfig,
    ArrayGeometry,
    CalibrationDataset,
    ChannelSpec,
    SimScenario,
    apply_calibration,
    bartlett_profile,
    calibrate,
    estimate_bearing,
    ground_truth_bearing,
    synth_trajectory,
    wavelength,
    wrap_angle,
)
from csisense.scenario import disc_trajectory, random_bias

chan = ChannelSpec(155, 80)
geom = ArrayGeometry.square(0.45 * wavelength(chan))
tx = np.array([0.0, 0.0])

# The "hardware": a random phase bias on every antenna/subcarrier cell,
# plus a random common phase per packet (packet-detection ambiguity).
truth = random_bias(chan, geom.n_antennas, seed=42)
print(f"injected bias: {truth.phase.shape} phases, uniform in (-pi, pi]")

# Collection protocol: drive anywhere within 5 m of a fixed transmitter
# and record (pose, frame) pairs.
scenario = SimScenario(
    tx_location=tx,
    chanspec=chan,
    trajectory=disc_trajectory(tx, radius_m=5.0, n=200, seed=42),
    true_calibration=truth,
    snr_db=30.0,
    per_packet_phase=True,
    seed=42,
)
pairs = synth_trajectory(scenario, geom)
dataset = CalibrationDataset(pairs=pairs, tx_location=tx, geom=geom, chanspec=chan)

result = calibrate(dataset)
print(f"spectral gap sigma1/sigma2 = {result.spectral_gap:.1f} "
      f"(>= 3 means line-of-sight dominated)")
# The phase of the leading singular vector is the calibration in closed
# form: no other unit-modulus phase leaves less power off that vector.
print(f"off-component power of the closed-form phase: {result.fine_objective:.4g}")

# The stored matrix is the correction; its negation estimates the bias.
# Anything common to all antennas is unobservable, so compare
# inter-antenna differences only.
est_diff = -result.matrix.phase
true_diff = truth.phase - truth.phase[0:1, :]
err = np.degrees(np.abs(wrap_angle(est_diff[1:] - true_diff[1:])))
print(f"inter-antenna phase error: median {np.median(err):.2f} deg, "
      f"90th percentile {np.percentile(err, 90):.2f} deg")

# The payoff: bearings on held-out frames.
held_out = synth_trajectory(
    SimScenario(tx_location=tx, chanspec=chan,
                trajectory=disc_trajectory(tx, 5.0, 100, seed=7),
                true_calibration=truth, snr_db=30.0, per_packet_phase=True, seed=7),
    geom,
)
cfg = AoaConfig()


def median_bearing_error(use_calibration):
    # estimate_bearing only picks the argmax; the RSSI floor belongs to
    # ingest (filter_frames), and every frame here is within 5 m anyway.
    errors = []
    for pose, frame in held_out:
        used = apply_calibration(result.matrix, frame) if use_calibration else frame
        est = estimate_bearing(bartlett_profile(used, geom, cfg), frame.rssi_dbm, cfg)
        errors.append(abs(wrap_angle(est.theta - ground_truth_bearing(pose, tx))))
    return np.degrees(np.median(errors))


print(f"median bearing error without calibration: "
      f"{median_bearing_error(False):6.1f} deg")
print(f"median bearing error with calibration:    "
      f"{median_bearing_error(True):6.2f} deg")
