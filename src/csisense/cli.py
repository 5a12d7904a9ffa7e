"""Command-line entry point: the pipeline end to end from one binary.

Subcommands:

    simulate   scenario file -> .wcap capture + poses CSV
    decode     capture or UDP -> frame summaries / CSV
    calibrate  capture + poses + tx location + geometry -> calibration file
    bearing    capture or UDP + calibration -> bearings CSV
    scan       scenario + policy -> walkthrough CSV + summary
    profile    one frame -> PGM profile image + sidecar

Exit codes: 0 success, 1 usage error, 2 data/validation error,
3 algorithm low confidence.  Every failure prints one machine-parsable
line to stderr: ``error: <kind>: <message>``.

Configuration files are INI-style with sections [channel], [packet],
[setup] and [algorithm]; command-line flags override file values, and
unknown keys are rejected before anything runs.  All randomness flows
from the single --seed flag.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import __version__
from .aoa import (
    AoaConfig,
    ProfileAverager,
    bartlett_profile,
    estimate_bearing,
    music_spectrum,
    spotfi_estimate,
    spotfi_smoothing_dims,
    write_bearings_csv,
    write_profile_pgm,
)
from .calibration import (
    CalibrationDataset,
    CalibrationError,
    LowConfidenceError,
    calibrate,
    load_calibration,
    parse_geometry,
    parse_point,
    save_calibration,
)
from .codec import (
    DEFAULT_UDP_PORT,
    CaptureTruncatedError,
    IngestStats,
    filter_frames,
    format_mac,
    ingest_stream,
    iter_capture,
    parse_mac,
    read_capture,
    read_capture_frame,
    udp_datagrams,
    write_capture,
)
from .core import (
    ArrayGeometry,
    BearingEstimate,
    ConfigurationError,
    CsiFrame,
    CsiSenseError,
    apply_calibration,
    subcarrier_indices,
)
from .scanner import ScanPolicy, run_walkthrough, write_walkthrough_csv
from .scenario import _read_ini, _Section, load_scenario, read_poses_csv, write_poses_csv
from .synth import synth_trajectory

# `bearing`'s RSSI floor when neither config nor flag sets one (`decode` has none).
_BEARING_RSSI_FLOOR_DBM = -65.0

_CONFIG_SECTIONS = {
    "channel": {"channel", "bandwidth"},
    "packet": {"mac_filter", "rssi_floor_dbm"},
    "setup": {"scan", "scan_period_s", "dwell_ms", "switch_margin_db",
              "switch_cost_ms", "stale_timeout_s"},
    "algorithm": {"algorithm", "theta_min_deg", "theta_max_deg", "theta_step_deg",
                  "dist_max_m", "dist_step_m", "window", "n_sources", "smoothing"},
}


@dataclass
class RunConfig:
    """Validated configuration merged from file and flags."""

    mac_filter: set[bytes] = field(default_factory=set)
    rssi_floor_dbm: float | None = None
    algorithm: str = "bartlett"
    theta_min_deg: float = -179.0
    theta_max_deg: float = 180.0
    theta_step_deg: float = 1.0
    dist_max_m: float = 30.0
    dist_step_m: float = 0.25
    window: int = 1
    n_sources: int = 1
    smoothing: tuple[int, int] | None = None
    scan_policy: ScanPolicy = field(default_factory=ScanPolicy)

    def aoa_config(self) -> AoaConfig:
        """Estimator settings: grids, algorithm, smoothing, window, sources."""
        if not (self.theta_step_deg > 0 and self.dist_step_m > 0):
            raise ConfigurationError("theta_step_deg and dist_step_m must be positive")
        theta = np.radians(
            np.arange(self.theta_min_deg, self.theta_max_deg + 1e-9, self.theta_step_deg)
        )
        dist = np.arange(0.0, self.dist_max_m + 1e-9, self.dist_step_m)
        return AoaConfig(
            theta_grid=theta,
            dist_grid=dist,
            algorithm=self.algorithm,
            smoothing=self.smoothing,
            window=self.window,
            n_sources=self.n_sources,
        )


def load_config(path) -> RunConfig:
    """Parse and validate a config file; unknown sections/keys are errors."""
    parser = _read_ini(path, "config", _CONFIG_SECTIONS.get)
    cfg = RunConfig()
    packet, algorithm, setup = (_Section(parser, name, path)
                                for name in ("packet", "algorithm", "setup"))
    cfg.mac_filter = packet.get("mac_filter", _parse_macs, cfg.mac_filter)
    cfg.rssi_floor_dbm = packet.get("rssi_floor_dbm", _rssi_floor, cfg.rssi_floor_dbm)
    cfg.algorithm = algorithm.get("algorithm", str.lower, cfg.algorithm)
    for key in ("theta_min_deg", "theta_max_deg", "theta_step_deg", "dist_max_m",
                "dist_step_m"):
        setattr(cfg, key, algorithm.get(key, float, getattr(cfg, key)))
    cfg.window = algorithm.get("window", int, cfg.window)
    cfg.n_sources = algorithm.get("n_sources", int, cfg.n_sources)
    cfg.smoothing = algorithm.get("smoothing", _parse_pair, cfg.smoothing)
    if parser.has_section("setup"):
        cfg.scan_policy = ScanPolicy(
            scan_period_s=setup.get("scan_period_s", float, 30.0),
            dwell_ms=setup.get("dwell_ms", int, 100),
            switch_margin_db=setup.get("switch_margin_db", float, 6.0),
            switch_cost_ms=setup.get("switch_cost_ms", int, 400),
            stale_timeout_s=setup.get("stale_timeout_s", float, 120.0),
        )
    return cfg


def _parse_macs(text: str) -> set[bytes]:
    return {parse_mac(m) for m in text.split(",") if m.strip()}


def _parse_pair(text: str) -> tuple[int, int]:
    first, _, second = text.partition(",")
    return int(first), int(second)


def _rssi_floor(value) -> float:
    """An RSSI floor in dBm.  NaN is refused: no frame compares below it."""
    floor = float(value)
    if np.isnan(floor):
        raise ConfigurationError("RSSI floor must be a number, not NaN")
    return floor


def _merge_flags(cfg: RunConfig, args) -> RunConfig:
    if getattr(args, "mac_filter", None):
        cfg.mac_filter = _parse_macs(args.mac_filter)
    if getattr(args, "rssi_floor", None) is not None:
        cfg.rssi_floor_dbm = _rssi_floor(args.rssi_floor)
    if getattr(args, "algorithm", None):
        cfg.algorithm = args.algorithm
    if getattr(args, "window", None) is not None:
        cfg.window = args.window
    if getattr(args, "n_sources", None) is not None:
        cfg.n_sources = args.n_sources
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csisense",
        description="WiFi CSI sensing toolkit: simulate, decode, calibrate, estimate bearings.",
    )
    parser.add_argument("--version", action="version", version=f"csisense {__version__}")
    parser.add_argument("--seed", type=int, default=None,
                        help="override every random seed (simulation scenarios)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize a capture + poses from a scenario file")
    p.add_argument("--scenario", required=True)
    p.add_argument("--capture", required=True, help="output .wcap path")
    p.add_argument("--poses", required=True, help="output poses CSV path")

    p = sub.add_parser("decode", help="decode a capture or UDP stream to summaries/CSV")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--capture")
    src.add_argument("--udp", type=int, nargs="?", const=DEFAULT_UDP_PORT, metavar="PORT")
    p.add_argument("--config")
    p.add_argument("--csv", help="write per-frame summary CSV here instead of stdout text")
    p.add_argument("--mac-filter")
    p.add_argument("--rssi-floor", type=float)
    p.add_argument("--count", type=int, default=None, help="stop after N datagrams (UDP)")
    p.add_argument("--timeout", type=float, default=5.0, help="UDP receive timeout, seconds")

    p = sub.add_parser("calibrate", help="recover the phase calibration from capture + poses")
    p.add_argument("--capture", required=True)
    p.add_argument("--poses", required=True)
    p.add_argument("--tx", required=True, metavar="X,Y", help="transmitter location, meters")
    p.add_argument("--geometry", required=True, help='antenna positions "x,y; x,y; ..."')
    p.add_argument("--out", required=True, help="output calibration file")
    p.add_argument("--min-pairs", type=int, default=50)
    p.add_argument("--tx-antenna", type=int, default=0)

    p = sub.add_parser("bearing", help="estimate bearings from calibrated frames")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--capture")
    src.add_argument("--udp", type=int, nargs="?", const=DEFAULT_UDP_PORT, metavar="PORT")
    p.add_argument("--calibration", required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True, help="output bearings CSV")
    p.add_argument("--algorithm", choices=["bartlett", "music", "spotfi"])
    p.add_argument("--window", type=int)
    p.add_argument("--n-sources", type=int)
    p.add_argument("--mac-filter")
    p.add_argument("--rssi-floor", type=float)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--timeout", type=float, default=5.0)

    p = sub.add_parser("scan", help="run a scanner walkthrough over a multi-AP scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True, help="output walkthrough CSV")

    p = sub.add_parser("profile", help="emit one frame's bearing-range profile as a PGM image")
    p.add_argument("--capture", required=True)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--calibration", help="calibration file (also supplies the geometry)")
    p.add_argument("--geometry", help='antenna positions "x,y; x,y; ..." (uncalibrated data)')
    p.add_argument("--config")
    p.add_argument("--out", required=True, help="output .pgm path")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    handler = {
        "simulate": _cmd_simulate,
        "decode": _cmd_decode,
        "calibrate": _cmd_calibrate,
        "bearing": _cmd_bearing,
        "scan": _cmd_scan,
        "profile": _cmd_profile,
    }[args.command]
    try:
        return handler(args)
    except LowConfidenceError as exc:
        print(f"error: low-confidence: {exc}", file=sys.stderr)
        return 3
    except (CsiSenseError, OSError) as exc:
        print(f"error: data: {exc}", file=sys.stderr)
        return 2


def _load_run_config(args) -> RunConfig:
    cfg = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    return _merge_flags(cfg, args)


def _cmd_simulate(args) -> int:
    scenario, geom = load_scenario(args.scenario, seed=args.seed)
    pairs = synth_trajectory(scenario, geom)
    write_capture(args.capture, (frame for _, frame in pairs))
    write_poses_csv(args.poses, [(f.timestamp_ns, p) for p, f in pairs])
    print(f"simulated {len(pairs)} frames on channel "
          f"{scenario.chanspec.channel_number}/{scenario.chanspec.bandwidth_mhz} MHz "
          f"(seed {scenario.seed})")
    print(f"capture: {args.capture}")
    print(f"poses:   {args.poses}")
    return 0


def _frame_source(args, cfg: RunConfig, rssi_floor_dbm: float | None, stats: IngestStats):
    """Decoded capture or UDP frames that pass the MAC allow-list and the RSSI floor.

    `decode` and `bearing` apply both filters here and nowhere else, so a
    dropped frame reaches no estimator and is counted once in `stats`.
    """
    mac_allow = cfg.mac_filter or None
    if args.capture:
        return filter_frames(iter_capture(args.capture), mac_allow, rssi_floor_dbm, stats)
    datagrams = udp_datagrams(port=args.udp, max_datagrams=args.count,
                              timeout_s=args.timeout)
    return ingest_stream(datagrams, mac_allow, rssi_floor_dbm, stats)


def _cmd_decode(args) -> int:
    cfg = _load_run_config(args)
    stats = IngestStats()
    truncated = None
    sink = open(args.csv, "w") if args.csv else contextlib.nullcontext(sys.stdout)
    with sink as out:
        out.write("timestamp_ns,seq,source_mac,channel,bandwidth_mhz,n_rx,n_tx,n_sub,rssi_dbm\n")
        try:
            for f in _frame_source(args, cfg, cfg.rssi_floor_dbm, stats):
                out.write(f"{f.timestamp_ns},{f.seq},{format_mac(f.source_mac)},"
                          f"{f.chanspec.channel_number},{f.chanspec.bandwidth_mhz},"
                          f"{f.n_rx},{f.n_tx},{f.n_sub},{f.rssi_dbm:.1f}\n")
        except CaptureTruncatedError as exc:
            truncated = exc  # the rows before the cut are written
    print(f"decoded {stats.delivered} frames "
          f"(dropped: {stats.dropped_decode} decode, {stats.dropped_mac} mac, "
          f"{stats.dropped_rssi} rssi)", file=sys.stderr)
    if truncated is not None:
        print(f"error: data: {truncated}", file=sys.stderr)
        return 2
    return 0


def _cmd_calibrate(args) -> int:
    frames = read_capture(args.capture)
    poses = read_poses_csv(args.poses)
    by_ts = {ts: pose for ts, pose in poses}
    pairs = []
    for frame in frames:
        pose = by_ts.get(frame.timestamp_ns)
        if pose is None:
            raise CalibrationError(
                f"no pose with timestamp {frame.timestamp_ns}; "
                "poses and capture must be time-aligned"
            )
        pairs.append((pose, frame))
    tx_location = np.array(parse_point(args.tx))
    geom = parse_geometry(args.geometry)
    if not frames:
        raise CalibrationError("capture holds no frames")
    dataset = CalibrationDataset(pairs=pairs, tx_location=tx_location, geom=geom,
                                 chanspec=frames[0].chanspec)
    result = calibrate(dataset, min_pairs=args.min_pairs, tx_index=args.tx_antenna)
    save_calibration(args.out, result.matrix, geom)
    print(f"pairs = {result.n_pairs}")
    print(f"spectral_gap = {result.spectral_gap:.4g}")
    print(f"objective_coarse = {result.coarse_objective:.6g}")
    print(f"objective_fine = {result.fine_objective:.6g}")
    print(f"converged = {str(result.converged).lower()}")
    print(f"calibration = {args.out}")
    return 0


def _cmd_bearing(args) -> int:
    cfg = _load_run_config(args)
    cal, geom = load_calibration(args.calibration)
    aoa_cfg = cfg.aoa_config()
    if aoa_cfg.algorithm == "spotfi":
        idx = subcarrier_indices(cal.chanspec)
        dims = spotfi_smoothing_dims(geom.n_antennas, int(idx[-1] - idx[0] + 1), aoa_cfg)
        print(f"spotfi smoothing = {dims[0]},{dims[1]}", file=sys.stderr)
    estimate = _bearing_estimator(geom, aoa_cfg)
    floor = _BEARING_RSSI_FLOOR_DBM if cfg.rssi_floor_dbm is None else cfg.rssi_floor_dbm
    stats = IngestStats()
    estimates: list[BearingEstimate] = []
    for frame in _frame_source(args, cfg, floor, stats):
        result = estimate(apply_calibration(cal, frame))
        estimates.append(result)
        if args.udp is not None:
            print(f"{result.timestamp_ns},{format_mac(result.source_mac)},"
                  f"{np.degrees(result.theta):.4f},{result.strength:.6g},"
                  f"{result.rssi_dbm:.2f}")
    write_bearings_csv(args.out, estimates)
    print(f"{len(estimates)} bearings written to {args.out} "
          f"({stats.dropped_rssi} rejected by rssi floor, {stats.dropped_mac} by mac filter)",
          file=sys.stderr)
    return 0


def _bearing_estimator(geom: ArrayGeometry,
                       cfg: AoaConfig) -> Callable[[CsiFrame], BearingEstimate]:
    """One calibrated frame -> its bearing, for cfg.algorithm.

    The returned function owns the averaging window: Bartlett's running
    profile average or MUSIC's last cfg.window frames.
    """
    if cfg.algorithm == "spotfi":
        def spotfi(frame: CsiFrame) -> BearingEstimate:
            top = spotfi_estimate(frame, geom, cfg)[0]
            return BearingEstimate(theta=top.theta, strength=top.power,
                                   rssi_dbm=frame.rssi_dbm, source_mac=frame.source_mac,
                                   timestamp_ns=frame.timestamp_ns)
        return spotfi
    if cfg.algorithm == "music":
        recent: deque[CsiFrame] = deque(maxlen=cfg.window)

        def spectrum(frame: CsiFrame):
            recent.append(frame)
            return music_spectrum(list(recent), geom, cfg)
    else:
        averager = ProfileAverager(cfg.window)

        def spectrum(frame: CsiFrame):
            return averager.push(bartlett_profile(frame, geom, cfg))

    def peak(frame: CsiFrame) -> BearingEstimate:
        return estimate_bearing(spectrum(frame), frame.rssi_dbm, cfg, frame.source_mac,
                                frame.timestamp_ns)
    return peak


def _cmd_scan(args) -> int:
    cfg = _load_run_config(args)
    scenario, _geom = load_scenario(args.scenario, seed=args.seed)
    result = run_walkthrough(scenario, cfg.scan_policy)
    write_walkthrough_csv(args.out, result)
    print(f"steps = {len(result.log)}")
    print(f"switch_count = {result.switch_count}")
    print(f"scan_count = {result.scan_count}")
    print(f"downtime_ms = {result.downtime_ns / 1e6:.0f}")
    print(f"fraction_tuned_to_nearest = {result.fraction_tuned_to_nearest:.4f}")
    print(f"log = {args.out}")
    return 0


def _cmd_profile(args) -> int:
    cfg = _load_run_config(args)
    frame = read_capture_frame(args.capture, args.index)
    geom = None
    if args.calibration:
        cal, geom = load_calibration(args.calibration)
        frame = apply_calibration(cal, frame)
    if args.geometry:
        geom = parse_geometry(args.geometry)
    if geom is None:
        raise ConfigurationError(
            "profile needs --calibration or --geometry to know the array layout"
        )
    aoa_cfg = cfg.aoa_config()
    profile = bartlett_profile(frame, geom, aoa_cfg)
    metadata = {
        "source_mac": format_mac(frame.source_mac),
        "seq": frame.seq,
        "timestamp_ns": frame.timestamp_ns,
        "channel": frame.chanspec.channel_number,
        "bandwidth_mhz": frame.chanspec.bandwidth_mhz,
        "rssi_dbm": f"{frame.rssi_dbm:.1f}",
        "algorithm": "bartlett",
    }
    write_profile_pgm(args.out, profile, metadata)
    ti, di = profile.argmax_cell()
    print(f"profile = {args.out}")
    print(f"peak_theta_deg = {np.degrees(profile.theta_grid[ti]):.1f}")
    print(f"peak_dist_m = {profile.dist_grid[di]:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
