"""Command-line entry point: the pipeline end to end from one binary.

Subcommands:

    simulate   scenario file -> .wcap capture + poses CSV
    decode     capture or UDP -> frame summaries / CSV
    calibrate  capture + poses + tx location + geometry -> calibration file
    bearing    capture or UDP + calibration -> bearings CSV
    scan       scenario + policy -> walkthrough CSV + summary
    profile    one frame -> PGM profile image + sidecar

Exit codes: 0 success, 1 usage error, 2 data/validation error,
3 algorithm low confidence, 130 stopped by SIGINT, 143 stopped by
SIGTERM and 141 when the reader of an output pipe closes it (128 plus
the signal number, SIGPIPE for a closed pipe, as shells report it).
Every failure prints one machine-parsable line to stderr:
``error: <kind>: <message>``.  A signal or a closed pipe ends a run the
way --count and --timeout end a listener: the rows written stay, and
`decode` and `bearing` print their summary line, with no error line and
no traceback.

`decode` and `bearing` share their ingest flags and one pipeline that
takes a capture a `codec.FrameBlock` at a time (the kept frames of
`codec.REPLAY_BLOCK` records that share a channel and antenna counts), a
UDP stream one datagram at a time, and writes each block's rows as it is
made; a stream's rows are flushed as each datagram's are written, so a
consumer reading a pipe or the output file sees them while the listener
runs.  A fault mid-stream keeps the rows before it and prints the
summary line, then the error line, and exits 2.  `calibrate` reads a
capture through the same blocks, unfiltered, and builds no per-frame
object: each block becomes its columns of the calibration's data matrix
as it arrives and is then dropped, the matrix sized once by the count in
the capture's header (read before the blocks, so the capture is a file,
not a pipe).

Configuration files (--config) are INI-style: [packet] (MAC allow-list,
RSSI floor) is read by `decode` and `bearing`, [algorithm] by `bearing`
(`profile` reads only its grid keys) and [setup] (the `ScanPolicy`
fields) by `scan`.  A key left out keeps the default of its owner:
`aoa.build_grids`, `AoaConfig` or `ScanPolicy`.  Flags override file
values; a section or key that nothing reads is rejected before anything runs.
All randomness flows from the single --seed flag.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import os
import signal
import sys
import threading
from dataclasses import dataclass, field, fields
from typing import Callable, Iterator

import numpy as np

from . import __version__
from .aoa import (
    ALGORITHMS,
    BEARINGS_CSV_HEADER,
    AoaConfig,
    bartlett_profile,
    bearing_csi_estimator,
    bearing_rows,
    build_grids,
    spotfi_smoothing_dims,
    write_profile_pgm,
)
from .calibration import (
    CalibrationError,
    MIN_PAIRS,
    LowConfidenceError,
    _calibrate_blocks,
    load_calibration,
    parse_geometry,
    parse_point,
    save_calibration,
)
from .codec import (
    DEFAULT_UDP_PORT,
    FrameBlock,
    IngestStats,
    capture_frame_count,
    format_mac,
    ingest_capture_blocks,
    ingest_stream_blocks,
    parse_mac,
    read_capture_frame,
    udp_datagrams,
    write_capture,
)
from .core import (
    MAX_COORDINATE_M,
    ArrayGeometry,
    ConfigurationError,
    CsiSenseError,
    FrameValidationError,
    _pose_arrays,
    apply_calibration,
    apply_calibration_block,
    wrap_angle,
)
from .scanner import ScanPolicy, run_walkthrough, write_walkthrough_csv
from .scenario import _Ini, _Section, load_scenario, read_poses_csv, write_poses_csv
from .synth import synth_trajectory

# `bearing`'s RSSI floor when neither config nor flag sets one (`decode` has none).
_BEARING_RSSI_FLOOR_DBM = -65.0


def _parse_macs(text: str) -> set[bytes]:
    return {parse_mac(m) for m in text.split(",") if m.strip()}


def _parse_pair(text: str) -> tuple[int, int]:
    first, _, second = text.partition(",")
    return int(first), int(second)


# [algorithm] keys: the grid keys are `build_grids`' parameters, the rest
# `AoaConfig` fields; [setup] keys are the `ScanPolicy` fields, parsed as
# the type of their defaults.
_GRID_KEYS = dict.fromkeys(inspect.signature(build_grids).parameters, float)
_ESTIMATOR_KEYS = {"algorithm": str.lower, "window": int, "n_sources": int,
                   "smoothing": _parse_pair}
_POLICY_KEYS = {f.name: type(f.default) for f in fields(ScanPolicy)}


@dataclass
class RunConfig:
    """Validated configuration merged from file and flags.

    `grid` and `estimator` hold only the [algorithm] values that are set.
    """

    mac_filter: set[bytes] = field(default_factory=set)
    rssi_floor_dbm: float | None = None
    grid: dict[str, float] = field(default_factory=dict)
    estimator: dict[str, object] = field(default_factory=dict)
    scan_policy: ScanPolicy = field(default_factory=ScanPolicy)

    def aoa_config(self) -> AoaConfig:
        """Estimator settings: grids, algorithm, smoothing, window, sources."""
        theta_grid, dist_grid = build_grids(**self.grid)
        return AoaConfig(theta_grid, dist_grid, **self.estimator)


def load_config(path) -> RunConfig:
    """Parse and validate a config file; a section or key nothing reads is an error."""
    ini = _Ini(path, "config")
    packet, algorithm, setup = map(ini.section, ("packet", "algorithm", "setup"))

    def given(section: _Section, keys: dict) -> dict:
        return {key: section.get(key, convert) for key, convert in keys.items()
                if ini.parser.has_option(section.name, key)}

    cfg = RunConfig()
    cfg.mac_filter = packet.get("mac_filter", _parse_macs, cfg.mac_filter)
    cfg.rssi_floor_dbm = packet.get("rssi_floor_dbm", _rssi_floor, cfg.rssi_floor_dbm)
    cfg.grid = given(algorithm, _GRID_KEYS)
    cfg.estimator = given(algorithm, _ESTIMATOR_KEYS)
    cfg.scan_policy = ScanPolicy(**given(setup, _POLICY_KEYS))
    ini.refuse_unread()
    return cfg


def _rssi_floor(value) -> float:
    """An RSSI floor in dBm.  NaN, which no frame compares below, and +-inf are refused."""
    floor = float(value)
    if not np.isfinite(floor):
        raise ConfigurationError("RSSI floor must be a finite number, not NaN or infinite")
    return floor


def _geometry_flag(text: str) -> ArrayGeometry:
    """`--geometry`'s antenna positions; a refused value names the flag."""
    try:
        return parse_geometry(text)
    except CsiSenseError as exc:
        raise ConfigurationError(f"bad --geometry {text!r}: {exc}") from exc


def _tx_flag(text: str) -> np.ndarray:
    """`--tx`'s transmitter position; a refused value names the flag."""
    try:
        point = parse_point(text)
    except CsiSenseError as exc:
        raise ConfigurationError(f"bad --tx {text!r}: {exc}") from exc
    if max(map(abs, point)) > MAX_COORDINATE_M:
        raise ConfigurationError(f"bad --tx {text!r}: coordinates are at most "
                                 f"{MAX_COORDINATE_M:g} m")
    return np.array(point)


def _load_run_config(args) -> RunConfig:
    """The --config file's settings (or the defaults), overridden by the flags given."""
    cfg = load_config(args.config) if args.config else RunConfig()
    if getattr(args, "mac_filter", None):
        cfg.mac_filter = _parse_macs(args.mac_filter)
    if getattr(args, "rssi_floor", None) is not None:
        cfg.rssi_floor_dbm = _rssi_floor(args.rssi_floor)
    for key in ("algorithm", "window", "n_sources"):
        if getattr(args, key, None) is not None:
            cfg.estimator[key] = getattr(args, key)
    return cfg


@functools.cache  # built once per process: parsing leaves the tree unchanged
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

    # `decode` and `bearing` read the same frame source through the same filters
    ingest = argparse.ArgumentParser(add_help=False)
    src = ingest.add_mutually_exclusive_group(required=True)
    src.add_argument("--capture", help="input .wcap capture")
    src.add_argument("--udp", type=int, nargs="?", const=DEFAULT_UDP_PORT, metavar="PORT",
                     help=f"listen for wire frames on this UDP port (default {DEFAULT_UDP_PORT})")
    ingest.add_argument("--config", help="INI config file")
    ingest.add_argument("--mac-filter", help="comma-separated source MACs to keep")
    ingest.add_argument("--rssi-floor", type=float, help="drop frames below this RSSI, dBm")
    ingest.add_argument("--count", type=int, default=None, help="stop after N datagrams (UDP)")
    ingest.add_argument("--timeout", type=float, default=5.0, help="UDP receive timeout, s")

    p = sub.add_parser("decode", parents=[ingest],
                       help="decode a capture or UDP stream to summaries/CSV")
    p.add_argument("--csv", help="write per-frame summary CSV here instead of stdout text")

    p = sub.add_parser("calibrate", help="recover the phase calibration from capture + poses")
    p.add_argument("--capture", required=True)
    p.add_argument("--poses", required=True)
    p.add_argument("--tx", required=True, metavar="X,Y", help="transmitter location, meters")
    p.add_argument("--geometry", required=True, help='antenna positions "x,y; x,y; ..."')
    p.add_argument("--out", required=True, help="output calibration file")
    p.add_argument("--min-pairs", type=int, default=MIN_PAIRS)
    p.add_argument("--tx-antenna", type=int, default=0)

    p = sub.add_parser("bearing", parents=[ingest],
                       help="estimate bearings from calibrated frames")
    p.add_argument("--calibration", required=True)
    p.add_argument("--out", required=True, help="output bearings CSV")
    p.add_argument("--algorithm", choices=ALGORITHMS)
    p.add_argument("--window", type=int)
    p.add_argument("--n-sources", type=int)

    p = sub.add_parser("scan", help="run a scanner walkthrough over a multi-AP scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True, help="output walkthrough CSV")

    p = sub.add_parser("profile", help="emit one frame's bearing-range profile as a PGM image")
    p.add_argument("--capture", required=True)
    p.add_argument("--index", type=int, default=0)
    layout = p.add_mutually_exclusive_group(required=True)
    layout.add_argument("--calibration", help="calibration file (also supplies the geometry)")
    layout.add_argument("--geometry", help='antenna positions "x,y; x,y; ..." (uncalibrated data)')
    p.add_argument("--config")
    p.add_argument("--out", required=True, help="output .pgm path")

    return parser


class _Stopped(BaseException):
    """A stop signal's number, raised where the run is: not an error, so no
    handler below `main` catches it, and every `finally` on the way runs."""


def _stop(signum, _frame) -> None:
    raise _Stopped(signum)


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
    # Only the main thread may set signal handlers; a `main` run in another
    # thread leaves the process's signals to their owner.
    previous = ({sig: signal.signal(sig, _stop) for sig in (signal.SIGINT, signal.SIGTERM)}
                if threading.current_thread() is threading.main_thread() else {})
    try:
        return handler(args)
    except _Stopped as exc:
        return 128 + exc.args[0]
    except BrokenPipeError:
        # the reader is gone, as for `decode ... | head`: end as SIGPIPE's
        # status, and give stdout's unwritten rows to the null device, or
        # the interpreter's exit flush would meet the closed pipe again
        _discard_stdout()
        return 128 + signal.SIGPIPE
    except LowConfidenceError as exc:
        print(f"error: low-confidence: {exc}", file=sys.stderr)
        return 3
    except (CsiSenseError, OSError) as exc:
        print(f"error: data: {exc}", file=sys.stderr)
        return 2
    finally:
        for sig, before in previous.items():
            signal.signal(sig, signal.SIG_DFL if before is None else before)


def _discard_stdout() -> None:
    """Point stdout's file descriptor at the null device, if it has one."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # not a file: a caller's in-memory stream
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _cmd_simulate(args) -> int:
    scenario, geom = load_scenario(args.scenario, seed=args.seed)
    pairs = synth_trajectory(scenario, geom)
    write_capture(args.capture, (frame for _, frame in pairs))
    write_poses_csv(args.poses, scenario.trajectory)
    print(f"simulated {len(pairs)} frames on channel "
          f"{scenario.chanspec.channel_number}/{scenario.chanspec.bandwidth_mhz} MHz "
          f"(seed {scenario.seed})")
    print(f"capture: {args.capture}")
    print(f"poses:   {args.poses}")
    return 0


def _ingest(args, cfg: RunConfig, rssi_floor_dbm: float | None, out_path: str | None,
            header: str, rows: Callable[[FrameBlock], tuple[list[str], Exception | None]],
            summary: Callable[[int, IngestStats], str], echo: bool = False) -> int:
    """`decode` and `bearing`: write `header`, then each ingested block's rows,
    to `out_path` (stdout if None), and with `echo` a stream's rows to stdout too.

    A capture comes a `codec.FrameBlock` at a time, a UDP stream a
    datagram at a time.  `rows(block)` gives the rows of the block's
    frames before its first fault, and that fault or None; the rows are
    written and the frames up to the fault counted before it is raised.
    A UDP port, --count or --timeout that no listen can use is refused
    before any socket is bound.  The MAC allow-list and the RSSI floor
    apply here and nowhere else, so a dropped frame reaches no estimator
    and is counted once.  If anything raises mid-stream, the rows written
    stay, and the summary of rows written and ingest counts is printed
    before the exception goes on to `main`.  A stream's rows are flushed
    once per block, after they are counted, and only then echoed, so a row
    that a consumer has seen is in the file and the summary even when a
    signal stops the run; a capture's rows are left to the file's buffer.
    """
    if args.udp is not None and not 0 <= args.udp <= 65535:
        raise ConfigurationError(f"--udp port must be 0-65535, got {args.udp}")
    if args.count is not None and args.count < 1:
        raise ConfigurationError(f"--count must be at least 1, got {args.count}")
    if not (np.isfinite(args.timeout) and args.timeout > 0):
        raise ConfigurationError(f"--timeout must be finite and above 0 s, got {args.timeout}")
    stats = IngestStats()
    mac_allow = cfg.mac_filter or None
    if args.capture:
        blocks = ingest_capture_blocks(args.capture, mac_allow, rssi_floor_dbm, stats)
    else:
        datagrams = udp_datagrams(port=args.udp, max_datagrams=args.count,
                                  timeout_s=args.timeout)
        blocks = ingest_stream_blocks(datagrams, mac_allow, rssi_floor_dbm, stats)
    written = 0
    try:
        with open(out_path, "w") if out_path else contextlib.nullcontext(sys.stdout) as out:
            out.write(header)
            for block in blocks:
                made, fault = rows(block)
                out.writelines(made)
                written += len(made)
                # a faulty frame was delivered, and is counted with the rows before it
                stats.count(block, None if fault is None else len(made) + 1)
                if args.udp is not None:
                    out.flush()
                    if echo:
                        sys.stdout.writelines(made)
                        sys.stdout.flush()
                if fault is not None:
                    raise fault
    finally:
        print(summary(written, stats), file=sys.stderr)
    return 0


def _cmd_decode(args) -> int:
    cfg = _load_run_config(args)

    def rows(block: FrameBlock) -> tuple[list[str], None]:
        chanspec, (_, n_rx, n_tx, n_sub) = block.chanspec, block.csi.shape
        shared = f"{chanspec.channel_number},{chanspec.bandwidth_mhz},{n_rx},{n_tx},{n_sub}"
        return [f"{ts},{seq},{format_mac(mac)},{shared},{rssi:.1f}\n"
                for ts, seq, mac, rssi in zip(block.timestamp_ns, block.seq, block.source_mac,
                                              block.rssi_dbm)], None

    return _ingest(args, cfg, cfg.rssi_floor_dbm, args.csv,
                   "timestamp_ns,seq,source_mac,channel,bandwidth_mhz,n_rx,n_tx,n_sub,rssi_dbm\n",
                   rows,
                   lambda n, stats: f"decoded {n} frames (dropped: {stats.dropped_decode} "
                                    f"decode, {stats.dropped_mac} mac, {stats.dropped_rssi} rssi)")


def _cmd_calibrate(args) -> int:
    tx_location = _tx_flag(args.tx)
    geom = _geometry_flag(args.geometry)
    by_ts = dict(read_poses_csv(args.poses))
    n_frames = capture_frame_count(args.capture)

    def posed(blocks: Iterator[FrameBlock]):
        """Each block as (chanspec, csi, its frames' positions and headings)."""
        block = None
        for block in blocks:
            poses = []
            for ts in block.timestamp_ns:
                pose = by_ts.get(ts)
                if pose is None:
                    raise CalibrationError(f"no pose with timestamp {ts}; "
                                           "poses and capture must be time-aligned")
                poses.append(pose)
            yield (block.chanspec, block.csi, *_pose_arrays(poses))
        if block is None:
            raise CalibrationError("capture holds no frames")

    result = _calibrate_blocks(posed(ingest_capture_blocks(args.capture)), n_frames,
                               tx_location, geom, None, args.min_pairs, args.tx_antenna)
    save_calibration(args.out, result.matrix, geom)
    print(f"pairs = {result.n_pairs}")
    print(f"spectral_gap = {result.spectral_gap:.4g}")
    print(f"objective_coarse = {result.coarse_objective:.6g}")
    print(f"calibration = {args.out}")
    return 0


def _cmd_bearing(args) -> int:
    cfg = _load_run_config(args)
    cal, geom = load_calibration(args.calibration)
    aoa_cfg = cfg.aoa_config()
    if aoa_cfg.algorithm == "spotfi":
        dims = spotfi_smoothing_dims(geom.n_antennas, cal.chanspec, aoa_cfg)
        print(f"spotfi smoothing = {dims[0]},{dims[1]}", file=sys.stderr)
    estimate = bearing_csi_estimator(geom, aoa_cfg)
    # each grid bearing as a row shows it, wrapped as `BearingEstimate` wraps it
    theta_deg = np.degrees(wrap_angle(aoa_cfg.theta_grid))
    floor = _BEARING_RSSI_FLOOR_DBM if cfg.rssi_floor_dbm is None else cfg.rssi_floor_dbm

    def rows(block: FrameBlock) -> tuple[list[str], Exception | None]:
        """Calibrate the block with one multiply, estimate the frames before
        the first whose product overflows, and make their rows."""
        try:
            csi, finite = apply_calibration_block(cal, block.chanspec, block.csi)
        except CsiSenseError as exc:
            return [], exc
        fault = None if finite == len(block) else FrameValidationError(
            f"frame {block.index[finite]} (timestamp_ns {block.timestamp_ns[finite]}): "
            "calibrated csi overflows complex64: csi entries must be finite")
        peaks, strength = estimate(block.chanspec, csi[:finite])
        made = bearing_rows(block.timestamp_ns, block.source_mac, theta_deg[peaks], strength,
                            block.rssi_dbm)
        return made, fault

    return _ingest(args, cfg, floor, args.out, BEARINGS_CSV_HEADER, rows,
                   lambda n, stats: f"{n} bearings written to {args.out} ({stats.dropped_rssi} "
                                    f"rejected by rssi floor, {stats.dropped_mac} by mac filter, "
                                    f"{stats.dropped_decode} undecodable)", echo=True)


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
    if args.calibration:
        cal, geom = load_calibration(args.calibration)
        frame = apply_calibration(cal, frame)
    else:
        geom = _geometry_flag(args.geometry)
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
