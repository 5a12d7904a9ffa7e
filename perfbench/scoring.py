"""Ground-truth scorers for the benchmark's outputs.

These live with the benchmark, not in the test suite, so the benchmark
checks the program without importing its tests.  They read the files
the CLI wrote and compare them against what the simulator was told.
"""

from __future__ import annotations

import csv

import numpy as np


def read_poses(path) -> dict[int, tuple[float, float, float]]:
    """Pose CSV -> {timestamp_ns: (x, y, heading_rad)}."""
    with open(path, newline="") as fh:
        return {int(row["timestamp_ns"]): (float(row["x"]), float(row["y"]),
                                           np.radians(float(row["theta"])))
                for row in csv.DictReader(fh)}


def bearing_errors_deg(bearings_csv, poses_csv, tx, source_mac: str | None = None,
                       y_axis_array: bool = False) -> np.ndarray:
    """|estimated - true| bearing per output row, degrees.

    The truth is `csisense.ground_truth_bearing` for the pose with the
    row's timestamp.  `source_mac` keeps only that transmitter's rows.
    A linear array along the y axis cannot tell theta from pi - theta;
    with `y_axis_array` the error is taken to the nearer of the two.
    """
    from csisense import Pose2D, ground_truth_bearing

    poses = read_poses(poses_csv)
    errors = []
    with open(bearings_csv, newline="") as fh:
        for row in csv.DictReader(fh):
            if source_mac is not None and row["source_mac"] != source_mac:
                continue
            x, y, heading = poses[int(row["timestamp_ns"])]
            truth = ground_truth_bearing(Pose2D(x, y, heading), np.asarray(tx, dtype=float))
            est = np.radians(float(row["theta_deg"]))
            err = abs(_wrap(est - truth))
            if y_axis_array:
                err = min(err, abs(_wrap(est - (np.pi - truth))))
            errors.append(err)
    return np.degrees(np.asarray(errors))


def calibration_errors_deg(correction_rad: np.ndarray, true_bias_rad: np.ndarray) -> np.ndarray:
    """Gauge-quotiented inter-antenna calibration error, degrees.

    The stored matrix is the correction, i.e. the negated bias referenced
    to antenna 0.  Anything common to all antennas cannot be observed, so
    both sides are referenced to antenna 0 and only rows 1.. are scored.
    """
    est_bias = -np.asarray(correction_rad, dtype=float)
    est_diff = est_bias - est_bias[0:1, :]
    true_diff = true_bias_rad - true_bias_rad[0:1, :]
    return np.degrees(np.abs(_wrap(est_diff[1:] - true_diff[1:]))).ravel()


def _wrap(theta):
    return np.mod(theta + np.pi, 2.0 * np.pi) - np.pi
