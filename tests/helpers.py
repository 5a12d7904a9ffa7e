"""Shared test helpers: the expected direct-path CSI of a pose, a reader for
the profile images `csisense profile` writes, and SpotFi's pseudospectrum of
a window the caller slices."""

import numpy as np

from csisense import aoa, ground_truth_bearing, steering_vector, wavelength


def expected_csi(robot, tx, geom, chanspec) -> np.ndarray:
    """Expected direct-path CSI (n_rx, n_sub) for a pose/transmitter pair: the
    steering vector at the ground-truth bearing, at the center wavelength, on
    every subcarrier (a narrowband model with no time-of-flight term)."""
    sv = steering_vector(ground_truth_bearing(robot, tx), geom, wavelength(chanspec))
    return np.repeat(sv[:, None], chanspec.n_sub, axis=1)


def read_profile_pgm(path) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """A profile image and its sidecar, as `aoa.write_profile_pgm` writes them:
    (uint8 image, theta grid in radians, distance grid in meters, other keys)."""
    with open(path, "rb") as fh:
        assert fh.readline().strip() == b"P5"
        n_dist, n_theta = (int(v) for v in fh.readline().split())
        assert int(fh.readline()) == 255
        image = np.frombuffer(fh.read(n_theta * n_dist), dtype=np.uint8)
        image = image.reshape(n_theta, n_dist)
    meta: dict[str, str] = {}
    with open(str(path) + ".txt") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            meta[key.strip()] = value.strip()
    theta = np.radians([float(v) for v in meta.pop("theta_deg").split(",")])
    dist = np.array([float(v) for v in meta.pop("dist_m").split(",")])
    return image, theta, dist, meta


def spotfi_pseudo(frames, geom, cfg) -> np.ndarray:
    """SpotFi's (n_theta, n_dist) pseudospectrum of a window of frames on one
    channel, from transmit antenna 0: the kernel the stream estimator runs."""
    return aoa._spotfi_pseudo(frames[0].chanspec, [f.csi[:, 0, :] for f in frames], geom, cfg)
