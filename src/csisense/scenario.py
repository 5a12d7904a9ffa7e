"""Scenario files and pose files.

A scenario is a flat INI-style text file describing everything the
simulator needs: channel, transmitter, receiver array, trajectory,
injected hardware bias, reflections, and (for scanner runs) the AP
layout.  A section or key is accepted only if the parser reads it, so a
typo fails loudly, and so does a key the rest of the file leaves unused:
another trajectory kind's key, `count` under `layout = square`, `spacing`
beside `spacing_m`, or any layout key beside `antennas`.

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

`power_dbm`, the RSSI 1 m from the transmitter or an AP, lies in
[-150, 50] dBm, and `path_loss_exponent` (under `[simulation]`, default
2.2) in [0, 10]: wide of any real link, and narrow enough that no path
level over- or underflows for poses 0.5 m to MAX_COORDINATE_M away.
`snr_db` lies in [-100, 300] dB, so the noise stays finite in the
capture's complex64; `none`, `inf` or `off` turn the noise off.
A `[reflection.N]` path's `rel_amplitude` is non-zero with magnitude at
most 100, its `excess_delay_ns` lies in [0, 10000] and its
`aoa_offset_deg` in [-360, 360]: wide of any real reflection, and
narrow enough that its level stays finite in the capture's float32 and
its phase is more than rounding noise.

Pose files are CSV with header ``timestamp_ns,x,y,theta`` (theta in
degrees, like every file in this package).
"""

from __future__ import annotations

import configparser
import math

import numpy as np

from .calibration import parse_geometry
from .codec import parse_mac
from .core import (
    MAX_COORDINATE_M,
    ArrayGeometry,
    CalibrationMatrix,
    ChannelSpec,
    ConfigurationError,
    CsiSenseError,
    Pose2D,
    _check_spacing,
    wavelength,
)
from .synth import (
    AOA_OFFSET_RANGE,
    DEFAULT_MAC,
    EXCESS_DELAY_RANGE_S,
    MAX_REL_AMPLITUDE,
    PATH_LOSS_EXPONENT_RANGE,
    POWER_DBM_RANGE,
    SNR_DB_RANGE,
    ApSpec,
    Reflection,
    SimScenario,
)


def load_scenario(path, seed: int | None = None) -> tuple[SimScenario, ArrayGeometry]:
    """Parse a scenario file; `seed` overrides the file's seed when given.

    Both seeds must be non-negative.  A missing or malformed value, or a
    section or key nothing reads, raises ConfigurationError naming the
    file, the section and the key.
    """
    ini = _Ini(path, "scenario")
    for required in ("channel", "transmitter", "array", "trajectory"):
        if not ini.parser.has_section(required):
            raise ConfigurationError(f"missing [{required}] section in {path}")

    chan = ini.section("channel")
    chanspec = ChannelSpec(chan.get("channel", int), chan.get("bandwidth", int))

    tx = ini.section("transmitter")
    tx_location = np.array([tx.get("x", _coordinate), tx.get("y", _coordinate)])

    geom = _parse_array(ini.section("array"), chanspec)

    sim = ini.section("simulation")
    file_seed = sim.get("seed", _seed, 0)
    if seed is not None and seed < 0:
        raise ConfigurationError(f"seed must be a non-negative integer, got {seed}")
    eff_seed = file_seed if seed is None else seed
    bias_mode = sim.get("bias", str.lower, "zero")

    trajectory = _parse_trajectory(ini.section("trajectory"), tx_location, eff_seed)

    true_cal = None
    if bias_mode == "random":
        true_cal = random_bias(chanspec, geom.n_antennas, eff_seed)
    elif bias_mode not in ("zero", "none"):
        raise ConfigurationError(f"unknown bias mode {bias_mode!r}")

    reflections = []
    for name in sorted(s for s in ini.parser.sections() if s.startswith("reflection.")):
        sec = ini.section(name)
        reflections.append(
            Reflection(
                aoa_offset=np.radians(sec.get("aoa_offset_deg", _aoa_offset_deg)),
                excess_delay_s=sec.get("excess_delay_ns", _excess_delay_ns) * 1e-9,
                rel_amplitude=sec.get("rel_amplitude", _rel_amplitude),
                random_phase=sec.get("random_phase", _parse_bool, Reflection.random_phase),
            )
        )

    aps = []
    for k, name in enumerate(sorted(s for s in ini.parser.sections() if s.startswith("ap."))):
        sec = ini.section(name)
        aps.append(
            ApSpec(
                location=np.array([sec.get("x", _coordinate), sec.get("y", _coordinate)]),
                chanspec=ChannelSpec(sec.get("channel", int), sec.get("bandwidth", int, 80)),
                tx_power_dbm=sec.get("power_dbm", _power_dbm, -30.0),
                mac=sec.get("mac", parse_mac, parse_mac(f"02:00:00:00:01:{k + 1:02x}")),
            )
        )

    scenario = SimScenario(
        tx_location=tx_location,
        chanspec=chanspec,
        trajectory=trajectory,
        true_calibration=true_cal,
        snr_db=sim.get("snr_db", _parse_snr, SimScenario.snr_db),
        per_packet_phase=sim.get("per_packet_phase", _parse_bool, SimScenario.per_packet_phase),
        reflections=reflections,
        aps=aps,
        tx_power_dbm=tx.get("power_dbm", _power_dbm, SimScenario.tx_power_dbm),
        path_loss_exponent=sim.get("path_loss_exponent", _path_loss_exponent,
                                   SimScenario.path_loss_exponent),
        source_mac=sim.get("source_mac", parse_mac, DEFAULT_MAC),
        seed=eff_seed,
    )
    ini.refuse_unread()
    return scenario, geom


def random_bias(chanspec: ChannelSpec, n_rx: int, seed: int) -> CalibrationMatrix:
    """Uniform random per-element hardware bias phases, reproducible by seed."""
    rng = np.random.default_rng(seed ^ 0x5EED_B1A5)
    phase = rng.uniform(-np.pi, np.pi, size=(n_rx, chanspec.n_sub))
    return CalibrationMatrix(phase=phase, chanspec=chanspec)


# Pose rate of the built-in trajectory kinds when a scenario gives none.
DEFAULT_RATE_HZ = 1.0
# The most poses a built-in trajectory may hold (11.6 days at 1 Hz), and the
# most laps a loop may run either way: more laps than poses only alias.
MAX_POSES = 1_000_000

# Disc poses nearer the center than this are drawn again, so path loss stays finite.
_MIN_DISTANCE_M = 0.5
# Least disc radius.  A draw is kept with probability 1 - (0.5 / radius)^2,
# at least 0.75 from here; just above 0.5 m, sampling all but hangs.
_MIN_RADIUS_M = 1.0


def disc_trajectory(
    center: np.ndarray,
    radius_m: float,
    n: int,
    seed: int,
    rate_hz: float = DEFAULT_RATE_HZ,
) -> list[tuple[int, Pose2D]]:
    """Poses uniform over a disc around `center`, random headings.

    Poses closer than 0.5 m to the center are resampled.  A radius below
    1 m raises ConfigurationError, as a disc that narrow would keep too
    few draws.
    """
    stamps = _pose_times(n, rate_hz)
    if not _MIN_RADIUS_M <= radius_m < np.inf:
        raise ConfigurationError(
            f"[trajectory] radius_m must be finite and at least {_MIN_RADIUS_M} m, "
            f"got {radius_m}"
        )
    cx, cy = float(center[0]), float(center[1])
    _check_reach(cx - radius_m, cx + radius_m, cy - radius_m, cy + radius_m)
    rng = np.random.default_rng(seed ^ 0x7A7E_C70A)
    out = []
    for ts in stamps:
        while True:
            r = radius_m * np.sqrt(rng.uniform())
            if r >= _MIN_DISTANCE_M:
                break
        phi = rng.uniform(0.0, 2.0 * np.pi)
        heading = rng.uniform(-np.pi, np.pi)
        pose = Pose2D(center[0] + r * np.cos(phi), center[1] + r * np.sin(phi), heading)
        out.append((ts, pose))
    return out


def loop_trajectory(
    x0: float,
    y0: float,
    length_m: float,
    width_m: float,
    laps: int,
    n: int,
    rate_hz: float = DEFAULT_RATE_HZ,
) -> list[tuple[int, Pose2D]]:
    """Rectangular circuit traversed `laps` times with n poses total.

    Neither side may be negative, and the perimeter must be positive.
    """
    for key, side in (("length_m", length_m), ("width_m", width_m)):
        if not side >= 0.0:
            raise ConfigurationError(f"[trajectory] {key} must not be negative, got {side:g}")
    if length_m + width_m == 0.0:
        raise ConfigurationError("[trajectory] length_m and width_m must not both be 0")
    _check_reach(x0, x0 + length_m, y0, y0 + width_m)
    if not -MAX_POSES <= laps <= MAX_POSES:
        raise ConfigurationError(f"[trajectory] laps must lie in [-{MAX_POSES}, {MAX_POSES}], "
                                 f"got {laps}")
    per = 2.0 * (length_m + width_m)
    out = []
    for k, ts in enumerate(_pose_times(n, rate_hz)):
        s = (k / n) * laps * per % per
        if s < length_m:
            x, y, th = x0 + s, y0, 0.0
        elif s < length_m + width_m:
            x, y, th = x0 + length_m, y0 + (s - length_m), np.pi / 2
        elif s < 2 * length_m + width_m:
            x, y, th = x0 + length_m - (s - length_m - width_m), y0 + width_m, np.pi
        else:
            x, y, th = x0, y0 + width_m - (s - 2 * length_m - width_m), -np.pi / 2
        out.append((ts, Pose2D(x, y, th)))
    return out


def line_trajectory(
    x0: float, y0: float, x1: float, y1: float, n: int, rate_hz: float = DEFAULT_RATE_HZ,
) -> list[tuple[int, Pose2D]]:
    """Straight segment from (x0, y0) to (x1, y1), heading along motion."""
    _check_reach(x0, x1, y0, y1)
    heading = float(np.arctan2(y1 - y0, x1 - x0))
    return [
        (ts, Pose2D(x0 + t * (x1 - x0), y0 + t * (y1 - y0), heading))
        for ts, t in zip(_pose_times(n, rate_hz), np.linspace(0.0, 1.0, n))
    ]


def _check_reach(*coordinates: float) -> None:
    """Refuse a trajectory whose extreme x or y lies beyond MAX_COORDINATE_M."""
    # Python floats overflow to inf quietly, and NaN compares false too
    far = [c for c in map(float, coordinates) if not abs(c) <= MAX_COORDINATE_M]
    if far:
        raise ConfigurationError(f"[trajectory] poses would reach a coordinate of {far[0]:g} m; "
                                 f"at most {MAX_COORDINATE_M:g} m")


def _coordinate(text: str) -> float:
    """A position coordinate in meters; its caller refuses NaN and inf."""
    value = float(text)
    if math.isfinite(value) and abs(value) > MAX_COORDINATE_M:
        raise ValueError(f"coordinates are at most {MAX_COORDINATE_M:g} m")
    return value


def _within(low: float, high: float):
    """A float converter refusing finite values outside [low, high]; its caller
    refuses NaN and inf."""
    def convert(text: str) -> float:
        value = float(text)
        if math.isfinite(value) and not low <= value <= high:
            raise ValueError(f"must lie in [{low:g}, {high:g}]")
        return value
    return convert


_power_dbm = _within(*POWER_DBM_RANGE)
_path_loss_exponent = _within(*PATH_LOSS_EXPONENT_RANGE)
_excess_delay_ns = _within(*(1e9 * bound for bound in EXCESS_DELAY_RANGE_S))
_aoa_offset_deg = _within(*np.degrees(AOA_OFFSET_RANGE))
_snr_db = _within(*SNR_DB_RANGE)


def _seed(text: str) -> int:
    """A simulation seed: a non-negative integer, as numpy's generators take."""
    value = int(text)
    if value < 0:
        raise ValueError("must be a non-negative integer")
    return value


def _rel_amplitude(text: str) -> float:
    """A reflection's gain relative to the direct path: non-zero, |a| <=
    MAX_REL_AMPLITUDE; its caller refuses NaN and inf."""
    value = float(text)
    if math.isfinite(value) and not 0.0 < abs(value) <= MAX_REL_AMPLITUDE:
        raise ValueError(f"must be non-zero and lie in [-{MAX_REL_AMPLITUDE:g}, "
                         f"{MAX_REL_AMPLITUDE:g}]")
    return value


def _pose_times(n: int, rate_hz: float) -> list[int]:
    """Timestamps (ns) of n poses from 0 at rate_hz; a bad n or rate_hz raises first."""
    if not 1 <= n <= MAX_POSES:
        raise ConfigurationError(f"[trajectory] n must be 1 to {MAX_POSES}, got {n}")
    period_ns = 1e9 / rate_hz if rate_hz > 0 else 0.0  # NaN > 0 is false
    if not 1.0 <= period_ns < np.inf:
        raise ConfigurationError(f"[trajectory] rate_hz must be in (0, 1e9], got {rate_hz}")
    return [k * int(round(period_ns)) for k in range(n)]


def write_poses_csv(path, trajectory: list[tuple[int, Pose2D]]) -> None:
    """Pose file: timestamp_ns, x, y, theta (degrees)."""
    with open(path, "w") as fh:
        fh.write("timestamp_ns,x,y,theta\n")
        for ts, pose in trajectory:
            fh.write(f"{ts},{pose.x:.9g},{pose.y:.9g},{np.degrees(pose.theta):.9g}\n")


def read_poses_csv(path) -> list[tuple[int, Pose2D]]:
    """Pose file rows.

    A file that is not UTF-8 text, or a row that does not parse, is not
    finite, holds an x or y beyond MAX_COORDINATE_M or repeats a timestamp,
    raises ConfigurationError naming the file (and the line).
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"bad pose file {path}: {exc}") from exc
    header = lines[0].strip()
    if header.split(",")[:4] != ["timestamp_ns", "x", "y", "theta"]:
        raise ConfigurationError(f"bad pose file header: {header!r}")
    out = []
    seen: dict[int, int] = {}  # timestamp -> its line
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        try:
            ts, x, y, theta = line.split(",")
            x, y, theta = _coordinate(x), _coordinate(y), float(theta)
            if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(theta)):
                raise ValueError("not a finite number")
            ts = int(ts)
            if seen.setdefault(ts, lineno) != lineno:
                raise ValueError(f"timestamp repeats line {seen[ts]}")
            out.append((ts, Pose2D(x, y, np.radians(theta))))
        except ValueError as exc:
            raise ConfigurationError(
                f"bad pose on line {lineno} of {path}: {line!r} ({exc})"
            ) from exc
    return out


def _parse_array(section: _Section, chanspec: ChannelSpec) -> ArrayGeometry:
    antennas = section.get("antennas", parse_geometry, None)
    if antennas is not None:
        return antennas
    half = wavelength(chanspec) / 2.0

    def read_spacing(shape):
        # `shape` runs inside the spacing key's `get`, so a spacing it
        # refuses names the key; `get` refuses NaN and inf itself
        def length(text: str):
            value = float(text)
            return shape(value) if math.isfinite(value) else value

        def spacing(text: str):
            return shape(half) if text.lower() in ("half-wavelength", "half-lambda") \
                else length(text)

        value = section.get("spacing_m", length, None)
        if value is None:
            value = section.get("spacing", spacing, None)
        return shape(half) if value is None else value

    layout = section.get("layout", str.lower, "square")
    if layout == "square":
        return read_spacing(ArrayGeometry.square)
    spacing_m = read_spacing(_check_spacing)
    if layout in ("linear-x", "linear-y"):
        def linear(count) -> ArrayGeometry:
            return ArrayGeometry.uniform_linear(int(count), spacing_m, axis=layout[-1])

        # built inside `get`, so a count the geometry refuses names the key
        geom = section.get("count", linear, None)
        return linear(4) if geom is None else geom
    raise ConfigurationError(f"unknown array layout {layout!r}")


def _parse_trajectory(section: _Section, tx_location, seed) -> list[tuple[int, Pose2D]]:
    kind = section.get("kind", str.lower, "disc")
    section.note = f" for kind = {kind}"  # each kind reads its own keys
    if kind == "file":
        poses = read_poses_csv(section.get("file", str))
        if poses:
            return poses
        raise ConfigurationError("[trajectory] file holds no poses")
    if kind not in ("disc", "loop", "line"):
        raise ConfigurationError(f"unknown trajectory kind {kind!r}")
    n = section.get("n", int, 200)
    rate = section.get("rate_hz", float, DEFAULT_RATE_HZ)
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
    return line_trajectory(
        section.get("x0", float, 0.0), section.get("y0", float, 0.0),
        section.get("x1", float, 10.0), section.get("y1", float, 0.0),
        n, rate,
    )


class _Ini:
    """An INI file (scenario or CLI config) that accepts only what its reader reads.

    Values are taken literally (`%` is no interpolation).  A file the
    parser refuses, such as one that repeats a key or a section or does
    not decode as text, raises ConfigurationError naming it.  Once the
    file is read, `refuse_unread` raises ConfigurationError for a section
    that no `section` call opened, or a key no `get` read.
    """

    def __init__(self, path, kind: str):
        self.parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                                interpolation=None)
        try:
            found = self.parser.read(path, encoding="utf-8")
        except (configparser.Error, UnicodeDecodeError) as exc:
            message = " ".join(str(exc).split())  # some span lines; an error takes one
            raise ConfigurationError(f"bad {kind} file {path}: {message}") from exc
        if not found:
            raise ConfigurationError(f"cannot read {kind} file {path}")
        self.path = path
        self.opened: dict[str, _Section] = {}

    def section(self, name: str) -> _Section:
        return self.opened.setdefault(name, _Section(self.parser, name, self.path))

    def refuse_unread(self) -> None:
        for name in self.parser.sections():
            section = self.opened.get(name)
            if section is None:
                raise ConfigurationError(f"unknown section [{name}] in {self.path}")
            unknown = set(self.parser[name]) - section.read
            if unknown:
                raise ConfigurationError(f"unknown keys {sorted(unknown)} in [{name}] of "
                                         f"{self.path}{section.note}")


_REQUIRED = object()


class _Section:
    """Typed reads from one section of an INI file, each key recorded in `read`.

    A missing required key, a value its converter refuses, or a float
    that is NaN or infinite raises ConfigurationError naming the file,
    the section and the key.  `note` ends the file's unknown-keys error.
    """

    def __init__(self, parser: configparser.ConfigParser, name: str, path):
        self.parser, self.name, self.path = parser, name, path
        self.read: set[str] = set()
        self.note = ""

    def get(self, key: str, convert, default=_REQUIRED):
        self.read.add(key)
        where = f"{key} in [{self.name}] of {self.path}"
        if not self.parser.has_option(self.name, key):
            if default is _REQUIRED:
                raise ConfigurationError(f"missing {where}")
            return default
        text = self.parser[self.name][key]
        try:
            value = convert(text)
        except (ValueError, CsiSenseError) as exc:
            raise ConfigurationError(f"bad value {text!r} for {where}: {exc}") from exc
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigurationError(f"[{self.name}] {key} must be a finite number, "
                                     f"got {text!r} in {self.path}")
        return value


def _parse_snr(text: str) -> float | None:
    """SNR in dB; "none", "inf" or "off" turn the noise off (any other value must be finite)."""
    return None if text.lower() in ("none", "inf", "off") else _snr_db(text)


def _parse_bool(text: str) -> bool:
    value = text.lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ConfigurationError(f"bad boolean {text!r}")
