"""Scenario files and pose files.

A scenario is a flat INI-style text file describing everything the
simulator needs: channel, transmitter, receiver array, trajectory,
injected hardware bias, reflections, and (for scanner runs) the AP
layout.  Section and key names are validated; unknown keys are
rejected so typos fail loudly.

Example::

    [channel]
    channel = 155
    bandwidth = 80

    [transmitter]
    x = 0.0
    y = 0.0
    power_dbm = -30

    [array]
    layout = square
    spacing = half-wavelength

    [simulation]
    seed = 1
    snr_db = 30
    per_packet_phase = true
    bias = random

    [trajectory]
    kind = disc
    n = 200
    radius_m = 5.0
    rate_hz = 1.0

    [reflection.1]
    aoa_offset_deg = 30
    excess_delay_ns = 8
    rel_amplitude = 0.7
    random_phase = true

    [ap.1]
    x = 10
    y = 0
    channel = 42
    bandwidth = 80
    power_dbm = -30

Pose files are CSV with header ``timestamp_ns,x,y,theta`` (theta in
degrees, like every file in this package).
"""

from __future__ import annotations

import configparser

import numpy as np

from .calibration import parse_geometry
from .codec import parse_mac
from .core import (
    ArrayGeometry,
    CalibrationMatrix,
    ChannelSpec,
    ConfigurationError,
    CsiSenseError,
    Pose2D,
    wavelength,
)
from .synth import DEFAULT_MAC, ApSpec, Reflection, SimScenario

_SECTIONS = {
    "channel": {"channel", "bandwidth"},
    "transmitter": {"x", "y", "power_dbm"},
    "array": {"antennas", "layout", "count", "spacing", "spacing_m"},
    "simulation": {"seed", "snr_db", "per_packet_phase", "bias", "path_loss_exponent",
                   "source_mac"},
    "trajectory": {"kind", "n", "radius_m", "rate_hz", "center_x", "center_y",
                   "x0", "y0", "x1", "y1", "length_m", "width_m", "laps", "file"},
    # numbered sections: [reflection.1], [ap.2], ...
    "reflection.": {"aoa_offset_deg", "excess_delay_ns", "rel_amplitude", "random_phase"},
    "ap.": {"x", "y", "channel", "bandwidth", "power_dbm", "mac"},
}


def load_scenario(path, seed: int | None = None) -> tuple[SimScenario, ArrayGeometry]:
    """Parse a scenario file; `seed` overrides the file's seed when given.

    A missing or malformed value raises ConfigurationError naming the
    file, the section and the key.
    """
    # a numbered section such as [ap.2] takes the keys of "ap."
    parser = _read_ini(path, "scenario",
                       lambda name: _SECTIONS.get("".join(name.partition(".")[:2])))
    for required in ("channel", "transmitter", "array", "trajectory"):
        if not parser.has_section(required):
            raise ConfigurationError(f"missing [{required}] section in {path}")

    chan = _Section(parser, "channel", path)
    chanspec = ChannelSpec(chan.get("channel", int), chan.get("bandwidth", int))

    tx = _Section(parser, "transmitter", path)
    tx_location = np.array([tx.get("x", float), tx.get("y", float)])

    geom = _parse_array(_Section(parser, "array", path), chanspec)

    sim = _Section(parser, "simulation", path)
    file_seed = sim.get("seed", int, 0)
    eff_seed = file_seed if seed is None else seed
    bias_mode = sim.get("bias", str.lower, "zero")

    trajectory = _parse_trajectory(_Section(parser, "trajectory", path), tx_location, eff_seed)

    true_cal = None
    if bias_mode == "random":
        true_cal = random_bias(chanspec, geom.n_antennas, eff_seed)
    elif bias_mode not in ("zero", "none"):
        raise ConfigurationError(f"unknown bias mode {bias_mode!r}")

    reflections = []
    for name in sorted(s for s in parser.sections() if s.startswith("reflection.")):
        sec = _Section(parser, name, path)
        reflections.append(
            Reflection(
                aoa_offset=np.radians(sec.get("aoa_offset_deg", float)),
                excess_delay_s=sec.get("excess_delay_ns", float) * 1e-9,
                rel_amplitude=sec.get("rel_amplitude", float),
                random_phase=sec.get("random_phase", _parse_bool, True),
            )
        )

    aps = []
    for k, name in enumerate(sorted(s for s in parser.sections() if s.startswith("ap."))):
        sec = _Section(parser, name, path)
        aps.append(
            ApSpec(
                location=np.array([sec.get("x", float), sec.get("y", float)]),
                chanspec=ChannelSpec(sec.get("channel", int), sec.get("bandwidth", int, 80)),
                tx_power_dbm=sec.get("power_dbm", float, -30.0),
                mac=sec.get("mac", parse_mac, parse_mac(f"02:00:00:00:01:{k + 1:02x}")),
            )
        )

    scenario = SimScenario(
        tx_location=tx_location,
        chanspec=chanspec,
        trajectory=trajectory,
        true_calibration=true_cal,
        snr_db=sim.get("snr_db", _parse_snr, 30.0),
        per_packet_phase=sim.get("per_packet_phase", _parse_bool, True),
        reflections=reflections,
        aps=aps,
        tx_power_dbm=tx.get("power_dbm", float, -30.0),
        path_loss_exponent=sim.get("path_loss_exponent", float, 2.2),
        source_mac=sim.get("source_mac", parse_mac, DEFAULT_MAC),
        seed=eff_seed,
    )
    return scenario, geom


def random_bias(chanspec: ChannelSpec, n_rx: int, seed: int) -> CalibrationMatrix:
    """Uniform random per-element hardware bias phases, reproducible by seed."""
    rng = np.random.default_rng(seed ^ 0x5EED_B1A5)
    phase = rng.uniform(-np.pi, np.pi, size=(n_rx, chanspec.n_sub))
    return CalibrationMatrix(phase=phase, chanspec=chanspec)


def disc_trajectory(
    center: np.ndarray,
    radius_m: float,
    n: int,
    seed: int,
    rate_hz: float = 1.0,
    min_distance_m: float = 0.5,
    t0_ns: int = 0,
) -> list[tuple[int, Pose2D]]:
    """Poses uniform over a disc around `center`, random headings.

    Poses closer than `min_distance_m` to the center are resampled so
    the path-loss model stays finite.
    """
    rng = np.random.default_rng(seed ^ 0x7A7E_C70A)
    dt_ns = int(round(1e9 / rate_hz))
    out = []
    for k in range(n):
        while True:
            r = radius_m * np.sqrt(rng.uniform())
            if r >= min_distance_m:
                break
        phi = rng.uniform(0.0, 2.0 * np.pi)
        heading = rng.uniform(-np.pi, np.pi)
        pose = Pose2D(center[0] + r * np.cos(phi), center[1] + r * np.sin(phi), heading)
        out.append((t0_ns + k * dt_ns, pose))
    return out


def loop_trajectory(
    x0: float,
    y0: float,
    length_m: float,
    width_m: float,
    laps: int,
    n: int,
    rate_hz: float = 1.0,
    t0_ns: int = 0,
) -> list[tuple[int, Pose2D]]:
    """Rectangular circuit traversed `laps` times with n poses total."""
    per = 2.0 * (length_m + width_m)
    dt_ns = int(round(1e9 / rate_hz))
    out = []
    for k in range(n):
        s = (k / n) * laps * per % per
        if s < length_m:
            x, y, th = x0 + s, y0, 0.0
        elif s < length_m + width_m:
            x, y, th = x0 + length_m, y0 + (s - length_m), np.pi / 2
        elif s < 2 * length_m + width_m:
            x, y, th = x0 + length_m - (s - length_m - width_m), y0 + width_m, np.pi
        else:
            x, y, th = x0, y0 + width_m - (s - 2 * length_m - width_m), -np.pi / 2
        out.append((t0_ns + k * dt_ns, Pose2D(x, y, th)))
    return out


def line_trajectory(
    x0: float, y0: float, x1: float, y1: float, n: int,
    rate_hz: float = 1.0, t0_ns: int = 0,
) -> list[tuple[int, Pose2D]]:
    """Straight segment from (x0, y0) to (x1, y1), heading along motion."""
    heading = float(np.arctan2(y1 - y0, x1 - x0))
    dt_ns = int(round(1e9 / rate_hz))
    ts = np.linspace(0.0, 1.0, n)
    return [
        (t0_ns + k * dt_ns, Pose2D(x0 + t * (x1 - x0), y0 + t * (y1 - y0), heading))
        for k, t in enumerate(ts)
    ]


def write_poses_csv(path, trajectory: list[tuple[int, Pose2D]]) -> None:
    """Pose file: timestamp_ns, x, y, theta (degrees)."""
    with open(path, "w") as fh:
        fh.write("timestamp_ns,x,y,theta\n")
        for ts, pose in trajectory:
            fh.write(f"{ts},{pose.x:.9g},{pose.y:.9g},{np.degrees(pose.theta):.9g}\n")


def read_poses_csv(path) -> list[tuple[int, Pose2D]]:
    out = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header.split(",")[:4] != ["timestamp_ns", "x", "y", "theta"]:
            raise ConfigurationError(f"bad pose file header: {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                ts, x, y, theta = line.split(",")
                out.append((int(ts), Pose2D(float(x), float(y), np.radians(float(theta)))))
            except ValueError as exc:
                raise ConfigurationError(
                    f"bad pose on line {lineno} of {path}: {line!r} ({exc})"
                ) from exc
    return out


def _read_ini(path, kind: str, allowed) -> configparser.ConfigParser:
    """Parse an INI file; `allowed` maps a section name to its keys, or None.

    An unknown section or key is an error, so typos fail loudly.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if not parser.read(path):
        raise ConfigurationError(f"cannot read {kind} file {path}")
    for section in parser.sections():
        keys = allowed(section)
        if keys is None:
            raise ConfigurationError(f"unknown section [{section}] in {path}")
        unknown = set(parser[section]) - keys
        if unknown:
            raise ConfigurationError(f"unknown keys {sorted(unknown)} in [{section}] of {path}")
    return parser


def _parse_array(section: _Section, chanspec: ChannelSpec) -> ArrayGeometry:
    antennas = section.get("antennas", parse_geometry, None)
    if antennas is not None:
        return antennas
    half = wavelength(chanspec) / 2.0

    def spacing(text: str) -> float:
        return half if text.lower() in ("half-wavelength", "half-lambda") else float(text)

    spacing_m = section.get("spacing_m", float, None)
    if spacing_m is None:
        spacing_m = section.get("spacing", spacing, half)
    layout = section.get("layout", str.lower, "square")
    if layout == "square":
        return ArrayGeometry.square(spacing_m)
    if layout in ("linear-x", "linear-y"):
        count = section.get("count", int, 4)
        return ArrayGeometry.uniform_linear(count, spacing_m, axis=layout[-1])
    raise ConfigurationError(f"unknown array layout {layout!r}")


def _parse_trajectory(section: _Section, tx_location, seed) -> list[tuple[int, Pose2D]]:
    kind = section.get("kind", str.lower, "disc")
    n = section.get("n", int, 200)
    rate = section.get("rate_hz", float, 1.0)
    if kind == "disc":
        center = np.array([
            section.get("center_x", float, tx_location[0]),
            section.get("center_y", float, tx_location[1]),
        ])
        return disc_trajectory(center, section.get("radius_m", float, 5.0), n, seed, rate)
    if kind == "loop":
        return loop_trajectory(
            section.get("x0", float, 0.0), section.get("y0", float, 0.0),
            section.get("length_m", float, 30.0), section.get("width_m", float, 5.0),
            section.get("laps", int, 2), n, rate,
        )
    if kind == "line":
        return line_trajectory(
            section.get("x0", float, 0.0), section.get("y0", float, 0.0),
            section.get("x1", float, 10.0), section.get("y1", float, 0.0),
            n, rate,
        )
    if kind == "file":
        return read_poses_csv(section.get("file", str))
    raise ConfigurationError(f"unknown trajectory kind {kind!r}")


_REQUIRED = object()


class _Section:
    """Typed reads from one section of an INI file (scenario or CLI config).

    A missing required key, or a value its converter refuses, raises
    ConfigurationError naming the file, the section and the key.
    """

    def __init__(self, parser: configparser.ConfigParser, name: str, path):
        self.parser, self.name, self.path = parser, name, path

    def get(self, key: str, convert, default=_REQUIRED):
        where = f"{key} in [{self.name}] of {self.path}"
        if not self.parser.has_option(self.name, key):
            if default is _REQUIRED:
                raise ConfigurationError(f"missing {where}")
            return default
        text = self.parser[self.name][key]
        try:
            return convert(text)
        except (ValueError, CsiSenseError) as exc:
            raise ConfigurationError(f"bad value {text!r} for {where}: {exc}") from exc


def _parse_snr(text: str) -> float | None:
    """SNR in dB; "none", "inf" or "off" turn the noise off."""
    return None if text.lower() in ("none", "inf", "off") else float(text)


def _parse_bool(text: str) -> bool:
    value = text.lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ConfigurationError(f"bad boolean {text!r}")
