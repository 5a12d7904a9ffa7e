"""Channel math building blocks: frequency grids, wavelengths, steering.

Run:  python3 demos/01_channel_basics.py
"""

import numpy as np

from csisense import (
    ArrayGeometry,
    ChannelSpec,
    Pose2D,
    ground_truth_bearing,
    steering_vector,
    subcarrier_frequencies,
    wavelength,
)

# A WiFi sensing configuration is a (channel, bandwidth) pair.
chan = ChannelSpec(channel_number=155, bandwidth_mhz=80)
print(f"channel 155 @ 80 MHz -> center {chan.center_freq_hz / 1e6:.0f} MHz, "
      f"lambda = {wavelength(chan) * 100:.2f} cm")

# 802.11ac exposes only the data tones; at 80 MHz that is 234 subcarriers
# spread over +/- 122 * 312.5 kHz with pilot and DC holes.
freqs = subcarrier_frequencies(chan)
print(f"{freqs.size} usable subcarriers from {freqs[0] / 1e6:.3f} "
      f"to {freqs[-1] / 1e6:.3f} MHz")

# The receiver array: four antennas on a square, half-wavelength sides.
geom = ArrayGeometry.square(wavelength(chan) / 2)
print("antenna positions (m):")
print(np.round(geom.positions, 4))

# A plane wave from bearing theta hits each antenna with a phase offset
# determined by the antenna's position: the steering vector.
theta = np.radians(30.0)
sv = steering_vector(theta, geom, wavelength(chan))
print(f"steering phases at {np.degrees(theta):.0f} deg: "
      f"{np.round(np.degrees(np.angle(sv)), 1)} deg")

# Ground-truth bearings come from robot odometry and a known transmitter
# location; this is what calibration and evaluation compare against.
robot = Pose2D(x=3.0, y=1.0, theta=np.radians(20.0))
tx = (0.0, 0.0)
bearing = ground_truth_bearing(robot, tx)
print(f"robot at (3, 1) heading 20 deg sees the transmitter at "
      f"{np.degrees(bearing):.1f} deg in its own frame")

