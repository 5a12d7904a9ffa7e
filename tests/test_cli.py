import dataclasses
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from csisense import (
    ArrayGeometry,
    BearingEstimate,
    CalibrationDataset,
    CalibrationMatrix,
    ChannelSpec,
    CsiFrame,
    PathComponent,
    apply_calibration,
    calibrate,
    codec,
    load_calibration,
    read_capture,
    save_calibration,
    synth_frame,
    wavelength,
    wrap_angle,
)
from csisense import scenario as scenario_module
from csisense.aoa import (
    BEARINGS_CSV_HEADER,
    AoaConfig,
    bearing_csi_estimator,
    bearing_rows,
    build_grids,
    estimate_bearing,
    music_spectrum,
)
from csisense.calibration import parse_geometry
from csisense.cli import RunConfig, load_config, main
from csisense.scanner import ScanPolicy
from csisense.scenario import read_poses_csv
from helpers import read_profile_pgm, spotfi_pseudo

SRC = Path(__file__).resolve().parents[1] / "src"

CALIB_SCENARIO = """
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
n = 80
radius_m = 5.0
rate_hz = 1.0
"""

GEOMETRY = "0,0; 0.02336,0; 0.02336,0.02336; 0,0.02336"

SCAN_SCENARIO = """
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
n = 4800

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


@pytest.fixture()
def workspace(tmp_path):
    scenario = tmp_path / "scenario.ini"
    scenario.write_text(CALIB_SCENARIO)
    return tmp_path, scenario


def ula_capture(tmp_path, axis, bearings):
    """A capture of one noisy 80 MHz frame per bearing on a 4-element
    half-wavelength ULA along `axis`, and an all-zero calibration for it."""
    chan = ChannelSpec(155, 80)
    ula = ArrayGeometry.uniform_linear(4, wavelength(chan) / 2.0, axis=axis)
    frames = [synth_frame([PathComponent(aoa=theta, delay_s=12e-9),
                           PathComponent(aoa=theta + 0.9, delay_s=40e-9, amplitude=0.3)],
                          ula, chan, snr_db=20.0, rng_seed=k, seq=k, timestamp_ns=k)
              for k, theta in enumerate(bearings)]
    capture, cal = tmp_path / "ula.wcap", tmp_path / "ula_cal.txt"
    codec.write_capture(capture, frames)
    save_calibration(cal, CalibrationMatrix(np.zeros((4, chan.n_sub)), chan), ula)
    return capture, cal


def frame_by_frame(geom, cfg, frames) -> list[BearingEstimate]:
    """Each frame's bearing from one `bearing_csi_estimator`, fed a frame at a time."""
    estimate = bearing_csi_estimator(geom, cfg)
    estimates = []
    for frame in frames:
        [k], [strength] = estimate(frame.chanspec, frame.csi[None])
        estimates.append(BearingEstimate(
            theta=float(cfg.theta_grid[k]), strength=float(strength), rssi_dbm=frame.rssi_dbm,
            source_mac=frame.source_mac, timestamp_ns=frame.timestamp_ns))
    return estimates


def bearings_csv(estimates) -> bytes:
    """The bearings CSV of `estimates`, as `bearing` writes it."""
    estimates = list(estimates)
    return (BEARINGS_CSV_HEADER + "".join(bearing_rows(
        [est.timestamp_ns for est in estimates], [est.source_mac for est in estimates],
        np.degrees([est.theta for est in estimates]), [est.strength for est in estimates],
        [est.rssi_dbm for est in estimates]))).encode()


def run_pipeline(tmp_path, scenario):
    capture = tmp_path / "run.wcap"
    poses = tmp_path / "poses.csv"
    cal = tmp_path / "cal.txt"
    bearings = tmp_path / "bearings.csv"
    assert main(["simulate", "--scenario", str(scenario),
                 "--capture", str(capture), "--poses", str(poses)]) == 0
    assert main(["calibrate", "--capture", str(capture), "--poses", str(poses),
                 "--tx", "0,0", "--geometry", GEOMETRY, "--out", str(cal)]) == 0
    assert main(["bearing", "--capture", str(capture), "--calibration", str(cal),
                 "--out", str(bearings)]) == 0
    return capture, poses, cal, bearings


class TestPipeline:
    def test_simulate_calibrate_bearing_accuracy(self, workspace):
        tmp_path, scenario = workspace
        capture, poses, cal, bearings = run_pipeline(tmp_path, scenario)
        truth = {ts: pose for ts, pose in read_poses_csv(poses)}
        errs = []
        with open(bearings) as fh:
            next(fh)
            for line in fh:
                ts, _mac, theta_deg, _s, _r = line.split(",")
                pose = truth[int(ts)]
                from csisense import ground_truth_bearing

                expected = ground_truth_bearing(pose, (0.0, 0.0))
                errs.append(abs(wrap_angle(np.radians(float(theta_deg)) - expected)))
        assert np.degrees(np.median(errs)) < 1.0

    def test_simulate_outputs_parse(self, workspace):
        tmp_path, scenario = workspace
        capture, poses, _, _ = run_pipeline(tmp_path, scenario)
        assert len(read_capture(capture)) == 80
        assert len(read_poses_csv(poses)) == 80

    def test_profile_subcommand(self, workspace):
        tmp_path, scenario = workspace
        capture, _, cal, _ = run_pipeline(tmp_path, scenario)
        out = tmp_path / "p.pgm"
        assert main(["profile", "--capture", str(capture), "--index", "3",
                     "--calibration", str(cal), "--out", str(out)]) == 0
        image, theta, dist, meta = read_profile_pgm(out)
        assert image.shape == (theta.size, dist.size)
        assert meta["channel"] == "155"

    def test_profile_decodes_only_its_frame(self, workspace, monkeypatch):
        tmp_path, scenario = workspace
        capture, _, cal, _ = run_pipeline(tmp_path, scenario)
        frames = read_capture(capture)
        calls = []
        decode = codec.decode_frame

        def counted(buf):
            calls.append(len(buf))
            return decode(buf)

        monkeypatch.setattr(codec, "decode_frame", counted)
        out = tmp_path / "p.pgm"
        for index in (0, 3, len(frames) - 1):
            calls.clear()
            assert main(["profile", "--capture", str(capture), "--index", str(index),
                         "--calibration", str(cal), "--out", str(out)]) == 0
            assert len(calls) == 1
            assert read_profile_pgm(out)[3]["seq"] == str(frames[index].seq)

    def test_profile_bad_index_or_damaged_capture_exit_2(self, workspace, capsys):
        tmp_path, scenario = workspace
        capture, _, cal, _ = run_pipeline(tmp_path, scenario)
        raw = capture.read_bytes()
        damaged = {"cut.wcap": raw[: len(raw) - 100], "trailing.wcap": raw + b"\0",
                   "magic.wcap": b"XCAP" + raw[4:]}
        cases = [(capture, 80, "frame index 80 out of range (capture has 80 frames)"),
                 (capture, -1, "frame index -1 out of range (capture has 80 frames)")]
        for name, data in damaged.items():
            (tmp_path / name).write_bytes(data)
            cases.append((tmp_path / name, 0, "error: data:"))
        for path, index, message in cases:
            capsys.readouterr()
            assert main(["profile", "--capture", str(path), "--index", str(index),
                         "--calibration", str(cal), "--out", str(tmp_path / "p.pgm")]) == 2
            assert message in capsys.readouterr().err


class TestDecode:
    def test_decode_to_csv(self, workspace, capsys):
        tmp_path, scenario = workspace
        capture, *_ = run_pipeline(tmp_path, scenario)
        out = tmp_path / "frames.csv"
        assert main(["decode", "--capture", str(capture), "--csv", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("timestamp_ns,seq,source_mac")
        assert len(lines) == 81

    def test_truncated_capture_exits_2_with_partial_output(self, workspace, capsys):
        tmp_path, scenario = workspace
        capture, *_ = run_pipeline(tmp_path, scenario)
        raw = capture.read_bytes()
        cut = tmp_path / "cut.wcap"
        cut.write_bytes(raw[: len(raw) - 100])
        out = tmp_path / "frames.csv"
        capsys.readouterr()
        assert main(["decode", "--capture", str(cut), "--csv", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["decoded 79 frames (dropped: 0 decode, 0 mac, 0 rssi)",
                                    "error: data: frame 79 of 80 cut short"]
        assert len(out.read_text().splitlines()) == 80  # header + 79 frames

    def test_capture_decoded_once(self, workspace, monkeypatch):
        """One header parse per capture record and no re-encoding, for every
        capture reader; `decode`, `bearing` and `calibrate` build no frame
        (they read the capture's blocks)."""
        tmp_path, scenario = workspace
        capture, poses, cal, _ = run_pipeline(tmp_path, scenario)
        frames = read_capture(capture)
        mixed = tmp_path / "mixed.wcap"
        codec.write_capture(mixed, [dataclasses.replace(f, source_mac=FOREIGN_MAC)
                                    if k % 4 == 1 else f for k, f in enumerate(frames)])
        keep = codec.format_mac(frames[0].source_mac)
        calls = {"header": 0, "frame": 0, "encode": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(codec, "_parse_header", counted("header", codec._parse_header))
        monkeypatch.setattr(codec.FrameBlock, "frame", counted("frame", codec.FrameBlock.frame))
        monkeypatch.setattr(codec, "encode_frame", counted("encode", codec.encode_frame))
        rows, bearings = tmp_path / "f.csv", tmp_path / "b.csv"
        for argv, delivered in (
                (["decode", "--capture", str(capture), "--csv", str(rows)], rows),
                (["decode", "--capture", str(mixed), "--csv", str(rows), "--mac-filter", keep],
                 rows),
                (["bearing", "--capture", str(capture), "--calibration", str(cal),
                  "--out", str(bearings)], bearings),
                (["bearing", "--capture", str(mixed), "--calibration", str(cal),
                  "--out", str(bearings), "--mac-filter", keep], bearings),
                (["calibrate", "--capture", str(capture), "--poses", str(poses),
                  "--tx", "0,0", "--geometry", GEOMETRY, "--out", str(tmp_path / "c.txt")],
                 None)):
            calls.update(header=0, frame=0, encode=0)
            assert main(argv) == 0
            if "--mac-filter" in argv:
                built = len(delivered.read_text().splitlines()) - 1
                assert built == len(frames) - len(frames[1::4])
            assert calls == {"header": len(frames), "frame": 0, "encode": 0}

    def test_rssi_floor_filters(self, workspace, capsys):
        tmp_path, scenario = workspace
        capture, *_ = run_pipeline(tmp_path, scenario)
        out = tmp_path / "frames.csv"
        assert main(["decode", "--capture", str(capture), "--csv", str(out),
                     "--rssi-floor", "-41"]) == 0
        rows = out.read_text().splitlines()[1:]
        assert all(float(r.rsplit(",", 1)[1]) >= -41 for r in rows)

    @pytest.mark.parametrize("command", ["decode", "bearing"])
    def test_mac_filter_matching_no_frame_leaves_the_header(self, tmp_path, capsys, command):
        capture, cal = ula_capture(tmp_path, "y", np.zeros(60))
        out = tmp_path / "b.csv"
        argv, header, summary = {
            "decode": (["decode"], "timestamp_ns,seq,source_mac,channel,bandwidth_mhz,n_rx,"
                                   "n_tx,n_sub,rssi_dbm\n",
                       "decoded 0 frames (dropped: 0 decode, 60 mac, 0 rssi)"),
            "bearing": (["bearing", "--calibration", str(cal), "--out", str(out)],
                        BEARINGS_CSV_HEADER, f"0 bearings written to {out} (0 rejected by "
                                             "rssi floor, 60 by mac filter, 0 undecodable)"),
        }[command]
        capsys.readouterr()
        assert main([*argv, "--capture", str(capture),
                     "--mac-filter", codec.format_mac(FOREIGN_MAC)]) == 0
        captured = capsys.readouterr()
        assert captured.err == summary + "\n"
        assert (captured.out if command == "decode" else out.read_text()) == header


FOREIGN_MAC = bytes.fromhex("020000000099")


def with_nan_payload(path, k):
    """Overwrite the first payload float of frame k of a capture whose frames
    are all one length with NaN, leaving every header intact."""
    raw = bytearray(path.read_bytes())
    length = int.from_bytes(raw[codec.CAPTURE_HEADER_SIZE:codec.CAPTURE_HEADER_SIZE + 4],
                            "little")
    at = codec.CAPTURE_HEADER_SIZE + k * (4 + length) + 4 + codec.HEADER_SIZE
    raw[at:at + 4] = np.float32(np.nan).tobytes()
    path.write_bytes(bytes(raw))


def foreign_frame(n_rx: int, timestamp_ns: int) -> CsiFrame:
    """A strong 36/20 MHz frame, as a channel switch puts into an 80 MHz stream."""
    rng = np.random.default_rng(timestamp_ns)
    csi = (rng.standard_normal((n_rx, 1, 52))
           + 1j * rng.standard_normal((n_rx, 1, 52))).astype(np.complex64)
    return CsiFrame(csi=csi, rssi_dbm=-40.0, source_mac=bytes.fromhex("020000000001"),
                    seq=0, chanspec=ChannelSpec(36, 20), timestamp_ns=timestamp_ns)


class TestIngestFaults:
    """`decode` and `bearing` keep the rows made before a fault, print their
    summary, then the one `error: data:` line, and exit 2."""

    @pytest.fixture()
    def capture60(self, tmp_path):
        scenario = tmp_path / "s60.ini"
        scenario.write_text(CALIB_SCENARIO.replace("n = 80", "n = 60"))
        capture, _, cal, bearings = run_pipeline(tmp_path, scenario)
        return capture, cal, bearings.read_text().splitlines()

    @pytest.mark.parametrize("algorithm", ["bartlett", "music"])
    def test_cut_capture_keeps_rows_before_the_cut(self, tmp_path, capsys, capture60,
                                                    algorithm):
        capture, cal, _ = capture60
        raw = capture.read_bytes()
        cut, out = tmp_path / "cut.wcap", tmp_path / "cut.csv"
        cut.write_bytes(raw[: len(raw) - 100])
        clean = tmp_path / "clean.csv"
        assert main(["bearing", "--capture", str(capture), "--calibration", str(cal),
                     "--out", str(clean), "--algorithm", algorithm]) == 0
        capsys.readouterr()
        assert main(["bearing", "--capture", str(cut), "--calibration", str(cal),
                     "--out", str(out), "--algorithm", algorithm]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert err[0].startswith(f"59 bearings written to {out} (")
        assert err[1] == "error: data: frame 59 of 60 cut short"
        assert out.read_text().splitlines() == clean.read_text().splitlines()[:60]

    @pytest.mark.parametrize("algorithm", ["bartlett", "music"])
    def test_foreign_channel_frame_keeps_rows_before_it(self, tmp_path, capsys, capture60,
                                                         algorithm):
        capture, cal, _ = capture60
        frames = read_capture(capture)
        mixed, out = tmp_path / "mixed.wcap", tmp_path / "mixed.csv"
        codec.write_capture(mixed, frames[:50] + [foreign_frame(4, frames[49].timestamp_ns + 1)]
                            + frames[50:])
        clean = tmp_path / "clean.csv"
        assert main(["bearing", "--capture", str(capture), "--calibration", str(cal),
                     "--out", str(clean), "--algorithm", algorithm]) == 0
        capsys.readouterr()
        assert main(["bearing", "--capture", str(mixed), "--calibration", str(cal),
                     "--out", str(out), "--algorithm", algorithm]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("50 bearings written to ")
        assert err[1].startswith("error: data: calibration chanspec")
        assert out.read_text().splitlines() == clean.read_text().splitlines()[:51]

    @pytest.mark.parametrize("dropped_by", ["mac", "rssi"])
    @pytest.mark.parametrize("command", ["decode", "bearing"])
    def test_filtered_frame_still_checked_finite(self, tmp_path, capsys, capture60,
                                                 command, dropped_by):
        """A frame the filter drops still fails on a NaN payload, where it fails
        unfiltered: rows and summary before it stay, then the error, exit 2."""
        capture, cal, _ = capture60
        frames = read_capture(capture)
        keep, k = codec.format_mac(frames[0].source_mac), 40
        changed = {"mac": {"source_mac": FOREIGN_MAC}, "rssi": {"rssi_dbm": -90.0}}
        frames = [dataclasses.replace(f, **changed[dropped_by]) if j % 3 == 1 else f
                  for j, f in enumerate(frames)]
        prefix, bad = tmp_path / "prefix.wcap", tmp_path / "bad.wcap"
        codec.write_capture(prefix, frames[:k])
        codec.write_capture(bad, frames)
        with_nan_payload(bad, k)
        out = tmp_path / "out.csv"
        flags = ["--mac-filter", keep, "--rssi-floor", "-80",
                 *(["--csv", str(out)] if command == "decode"
                   else ["--calibration", str(cal), "--out", str(out)])]
        capsys.readouterr()
        assert main([command, "--capture", str(prefix), *flags]) == 0
        summary, rows = capsys.readouterr().err.splitlines(), out.read_text()
        assert len(summary) == 1 and len(rows.splitlines()) == 1 + k - len(frames[1:k:3])
        assert main([command, "--capture", str(bad), *flags]) == 2
        assert capsys.readouterr().err.splitlines() == summary + [
            f"error: data: frame {k} of 60 undecodable: csi entries must be finite"]
        assert out.read_text() == rows

    @pytest.fixture(scope="class")
    def capture150(self, tmp_path_factory):
        """A ULA capture of 150 frames (more than two blocks), with every third
        record dropped, by MAC or by RSSI in turn, and its calibration."""
        tmp_path = tmp_path_factory.mktemp("capture150")
        capture, cal = ula_capture(tmp_path, "y",
                                   np.radians(12.0 + 4.0 * np.sin(np.arange(150) / 9.0)))
        dropped = [{"source_mac": FOREIGN_MAC}, {"rssi_dbm": -90.0}]
        frames = [dataclasses.replace(f, **dropped[j % 2]) if j % 3 == 1 else f
                  for j, f in enumerate(read_capture(capture))]
        return frames, cal

    @staticmethod
    def _faulty_run(tmp_path, capsys, frames, cal, command, k, damage):
        """Run `command` on frames[:k], then on all the frames with record k
        damaged; returns the first run's stderr and the second's, and asserts
        that both write the same rows and the second exits 2."""
        prefix, bad = tmp_path / "prefix.wcap", tmp_path / "bad.wcap"
        codec.write_capture(prefix, frames[:k])
        damage(bad)
        out = tmp_path / "out.csv"
        flags = ["--mac-filter", codec.format_mac(frames[0].source_mac), "--rssi-floor", "-80",
                 *(["--csv", str(out)] if command == "decode"
                   else ["--calibration", str(cal), "--out", str(out), "--algorithm", command])]
        run = "decode" if command == "decode" else "bearing"
        capsys.readouterr()
        assert main([run, "--capture", str(prefix), *flags]) == 0
        first, rows = capsys.readouterr().err.splitlines(), out.read_text()
        assert len(rows.splitlines()) == 1 + sum(j % 3 != 1 for j in range(k))
        assert main([run, "--capture", str(bad), *flags]) == 2
        second = capsys.readouterr().err.splitlines()
        assert out.read_text() == rows
        return first, second

    @pytest.mark.parametrize("at", ["first", "middle", "last"])
    @pytest.mark.parametrize("command", ["decode", "bartlett", "music", "spotfi"])
    def test_nan_in_a_dropped_record_anywhere_in_a_block(self, tmp_path, capsys, capture150,
                                                         command, at):
        """A dropped record's NaN payload fails where it is, whichever record
        of its block it is: the rows and summary are the capture's cut there."""
        frames, cal = capture150
        block = codec.REPLAY_BLOCK
        k = {"first": block, "middle": block + block // 2, "last": 2 * block - 1}[at]
        frames = list(frames)
        frames[k] = dataclasses.replace(frames[k], source_mac=FOREIGN_MAC)

        def damage(path):
            codec.write_capture(path, frames)
            with_nan_payload(path, k)
        summary, err = self._faulty_run(tmp_path, capsys, frames, cal, command, k, damage)
        assert len(summary) == 1 + (command == "spotfi")
        assert err == summary + [
            f"error: data: frame {k} of 150 undecodable: csi entries must be finite"]

    @pytest.mark.parametrize("algorithm", ["bartlett", "music", "spotfi"])
    def test_foreign_channel_frame_counts_no_record_read_ahead(self, tmp_path, capsys,
                                                              capture150, algorithm):
        """Record 70, a kept frame from another channel, fails its calibration;
        the dropped records after it in its block, read with it, are not
        counted.  (`decode` has no calibration and writes that frame's row.)"""
        frames, cal = capture150
        k = 70
        assert k % codec.REPLAY_BLOCK < codec.REPLAY_BLOCK - 3
        foreign = dataclasses.replace(foreign_frame(4, frames[k].timestamp_ns),
                                      source_mac=frames[0].source_mac)
        summary, err = self._faulty_run(
            tmp_path, capsys, frames, cal, algorithm, k,
            lambda path: codec.write_capture(path, frames[:k] + [foreign] + frames[k + 1:]))
        assert err[:-1] == summary
        assert err[-1].startswith("error: data: calibration chanspec")

    @pytest.mark.parametrize("k", [40, 32])
    @pytest.mark.parametrize("algorithm", ["bartlett", "music"])
    def test_calibration_overflow_names_its_frame(self, tmp_path, capsys, capture60,
                                                  algorithm, k):
        """A finite frame whose calibrated product overflows complex64 stops
        `bearing` there: the rows and summary before it, then one error line
        that names it, and no warning.  Record 32 starts an ingest block."""
        capture, cal, _ = capture60
        frames = read_capture(capture)
        frames[k] = dataclasses.replace(
            frames[k], csi=np.full_like(frames[k].csi, np.finfo(np.float32).max * (1 + 1j)))
        prefix, bad, out = tmp_path / "prefix.wcap", tmp_path / "bad.wcap", tmp_path / "out.csv"
        codec.write_capture(prefix, frames[:k])
        codec.write_capture(bad, frames)
        flags = ["--calibration", str(cal), "--out", str(out), "--algorithm", algorithm]
        capsys.readouterr()
        assert main(["bearing", "--capture", str(prefix), *flags]) == 0
        summary, rows = capsys.readouterr().err.splitlines(), out.read_text()
        assert len(rows.splitlines()) == 1 + k
        assert main(["bearing", "--capture", str(bad), *flags]) == 2
        err = capsys.readouterr().err
        assert "Warning" not in err
        assert err.splitlines() == summary + [
            f"error: data: frame {k} (timestamp_ns {frames[k].timestamp_ns}): calibrated csi "
            "overflows complex64: csi entries must be finite"]
        assert out.read_text() == rows

    @pytest.mark.parametrize("command,window", [("decode", 1), ("bartlett", 1), ("bartlett", 4),
                                                ("music", 1), ("music", 4)])
    def test_shape_runs_across_blocks_match_frame_by_frame(self, tmp_path, capsys, capture60,
                                                            command, window):
        """Runs of 20 MHz frames and of 2-antenna frames, each across a
        REPLAY_BLOCK boundary: `decode` writes every frame's row, and
        `bearing` the rows before the first 20 MHz frame, then its error,
        each byte for byte as a frame-by-frame reference."""
        capture, cal, _ = capture60
        frames = read_capture(capture)
        block = codec.REPLAY_BLOCK

        def odd(n_rx, chanspec, timestamp_ns):
            rng = np.random.default_rng(timestamp_ns)
            shape = (n_rx, 1, chanspec.n_sub)
            return CsiFrame((rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                             ).astype(np.complex64), -40.0, FOREIGN_MAC, 7, chanspec, timestamp_ns)
        narrow = [odd(4, ChannelSpec(36, 20), 10**12 + j) for j in range(6)]
        two = [odd(2, frames[0].chanspec, 2 * 10**12 + j) for j in range(6)]
        mixed = (frames[:block - 3] + narrow + frames[block - 3: 2 * block - 9] + two
                 + frames[2 * block - 9:])
        assert [len(mixed), mixed.index(narrow[0]), mixed.index(two[0])] == [
            72, block - 3, 2 * block - 3]
        path, out = tmp_path / "mixed.wcap", tmp_path / "out.csv"
        codec.write_capture(path, mixed)
        capsys.readouterr()
        if command == "decode":
            assert main(["decode", "--capture", str(path), "--csv", str(out)]) == 0
            assert capsys.readouterr().err == ("decoded 72 frames (dropped: 0 decode, 0 mac, "
                                               "0 rssi)\n")
            assert out.read_text() == "timestamp_ns,seq,source_mac,channel,bandwidth_mhz,n_rx," \
                "n_tx,n_sub,rssi_dbm\n" + "".join(
                    f"{f.timestamp_ns},{f.seq},{codec.format_mac(f.source_mac)},"
                    f"{f.chanspec.channel_number},{f.chanspec.bandwidth_mhz},{f.n_rx},{f.n_tx},"
                    f"{f.n_sub},{f.rssi_dbm:.1f}\n" for f in read_capture(path))
            return
        matrix, geom = load_calibration(cal)
        reference = bearings_csv(frame_by_frame(
            geom, AoaConfig(algorithm=command, window=window),
            [apply_calibration(matrix, f) for f in read_capture(path)[:block - 3]]))
        assert main(["bearing", "--capture", str(path), "--calibration", str(cal), "--out",
                     str(out), "--algorithm", command, "--window", str(window)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0] == (f"{block - 3} bearings written to {out} (0 rejected by rssi floor, "
                          "0 by mac filter, 0 undecodable)")
        assert err[1].startswith("error: data: calibration chanspec") and len(err) == 2
        assert out.read_bytes() == reference

    def test_missing_capture_leaves_header_only_csv(self, tmp_path, capsys, capture60):
        _, cal, rows = capture60
        out = tmp_path / "none.csv"
        capsys.readouterr()
        assert main(["bearing", "--capture", str(tmp_path / "nope.wcap"),
                     "--calibration", str(cal), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("0 bearings written to ")
        assert err[1].startswith("error: data:") and len(err) == 2
        assert out.read_text().splitlines() == rows[:1]


class TestCaptureFaultPaths:
    """A 40-frame capture cut, or damaged, where each capture check fails:
    the rows before the fault, the summary, one `error: data:` line, exit 2."""

    @pytest.fixture()
    def capture40(self, tmp_path):
        """The capture's path, its bytes, and the offset of record k's length
        prefix (its records are all one length)."""
        capture, _ = simulated_capture(tmp_path, 40)
        raw = capture.read_bytes()
        head = codec.CAPTURE_HEADER_SIZE
        length = int.from_bytes(raw[head:head + 4], "little")
        return capture, raw, lambda k: head + k * (4 + length)

    @staticmethod
    def _decode(tmp_path, capsys, raw: bytes):
        """`decode` of a capture of bytes `raw`: exit code, CSV lines, stderr lines."""
        path, out = tmp_path / "bad.wcap", tmp_path / "bad.csv"
        path.write_bytes(raw)
        capsys.readouterr()
        code = main(["decode", "--capture", str(path), "--csv", str(out)])
        return code, out.read_text().splitlines(), capsys.readouterr().err.splitlines()

    def test_cut_inside_a_length_prefix(self, tmp_path, capsys, capture40):
        capture, raw, at = capture40
        clean = tmp_path / "clean.csv"
        assert main(["decode", "--capture", str(capture), "--csv", str(clean)]) == 0
        code, rows, err = self._decode(tmp_path, capsys, raw[:at(5) + 2])
        assert code == 2
        assert rows == clean.read_text().splitlines()[:6]
        assert err == ["decoded 5 frames (dropped: 0 decode, 0 mac, 0 rssi)",
                       "error: data: capture ends at frame 5 of 40"]

    @pytest.mark.parametrize("damage,message", [
        (lambda raw: raw[:4] + (2).to_bytes(4, "little") + raw[8:],
         "unsupported capture version 2"),
        (lambda raw: raw[:10], "file too short for capture header"),
    ], ids=["version-2", "10-bytes"])
    def test_bad_capture_header(self, tmp_path, capsys, capture40, damage, message):
        _, raw, _ = capture40
        code, rows, err = self._decode(tmp_path, capsys, damage(raw))
        assert code == 2
        assert len(rows) == 1
        assert err == ["decoded 0 frames (dropped: 0 decode, 0 mac, 0 rssi)",
                       f"error: data: {message}"]

    def test_bad_magic_fails_its_frame_only(self, tmp_path, capsys, capture40):
        """`profile` decodes its frame alone: frame 7's bad magic fails
        `--index 7`, and `--index 2` writes the clean capture's profile."""
        capture, raw, at = capture40
        bad = bytearray(raw)
        bad[at(7) + 4:at(7) + 8] = b"XXXX"
        code, rows, err = self._decode(tmp_path, capsys, bytes(bad))
        message = "error: data: frame 7 of 40 undecodable: bad magic 0x58585858"
        assert (code, len(rows), err) == (
            2, 8, ["decoded 7 frames (dropped: 0 decode, 0 mac, 0 rssi)", message])

        def profile(path, index, out):
            capsys.readouterr()
            code = main(["profile", "--capture", str(path), "--index", str(index),
                         "--geometry", GEOMETRY, "--out", str(out)])
            return code, capsys.readouterr()

        path = tmp_path / "bad.wcap"
        code, captured = profile(path, 7, tmp_path / "p7.pgm")
        assert (code, captured.err) == (2, message + "\n")
        assert profile(path, 2, tmp_path / "p2.pgm")[0] == 0
        assert profile(capture, 2, tmp_path / "clean.pgm")[0] == 0
        assert (tmp_path / "p2.pgm").read_bytes() == (tmp_path / "clean.pgm").read_bytes()


def _bad_config(section: str, line: str, message: str, id: str | None = None):
    """A config file case: its one line in `section`, and how the error line
    after `error: data: ` starts."""
    return pytest.param(section, line, message, id=id or f"{section}-{line}")


class TestErrors:
    def test_parser_built_once_per_process(self, capsys):
        from csisense import cli

        cli.build_parser.cache_clear()
        assert main(["--version"]) == 0
        assert main(["decode"]) == 1
        assert cli.build_parser.cache_info().misses == 1
        assert capsys.readouterr().out == f"csisense {cli.__version__}\n"

    def test_usage_error_exit_1(self):
        assert main(["bogus-subcommand"]) == 1
        assert main([]) == 1

    def test_calibrate_too_few_pairs_exit_2(self, tmp_path, capsys):
        scenario = tmp_path / "tiny.ini"
        scenario.write_text(CALIB_SCENARIO.replace("n = 80", "n = 3"))
        capture, poses = tmp_path / "c.wcap", tmp_path / "p.csv"
        assert main(["simulate", "--scenario", str(scenario),
                     "--capture", str(capture), "--poses", str(poses)]) == 0
        code = main(["calibrate", "--capture", str(capture), "--poses", str(poses),
                     "--tx", "0,0", "--geometry", GEOMETRY,
                     "--out", str(tmp_path / "cal.txt")])
        assert code == 2
        assert "error: data:" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert main(["decode", "--capture", str(tmp_path / "nope.wcap")]) == 2
        assert "error: data:" in capsys.readouterr().err

    def test_unknown_config_key_exit_2(self, workspace, capsys):
        tmp_path, scenario = workspace
        capture, _, cal, _ = run_pipeline(tmp_path, scenario)
        config = tmp_path / "bad.ini"
        config.write_text("[algorithm]\nalgorithym = music\n")
        code = main(["bearing", "--capture", str(capture), "--calibration", str(cal),
                     "--out", str(tmp_path / "b.csv"), "--config", str(config)])
        assert code == 2

    @pytest.mark.parametrize("flag,value,chunk", [
        ("--geometry", "0,0; x,1", "x,1"),
        ("--geometry", "0,0; 1", "1"),
        ("--tx", "0", "0"),
        ("--tx", "1,y", "1,y"),
    ])
    def test_calibrate_malformed_point_exit_2(self, workspace, capsys, flag, value, chunk):
        tmp_path, scenario = workspace
        capture, poses = tmp_path / "c.wcap", tmp_path / "p.csv"
        assert main(["simulate", "--scenario", str(scenario),
                     "--capture", str(capture), "--poses", str(poses)]) == 0
        argv = {"--capture": str(capture), "--poses": str(poses), "--tx": "0,0",
                "--geometry": GEOMETRY, "--out": str(tmp_path / "cal.txt")}
        argv[flag] = value
        code = main(["calibrate", *(item for pair in argv.items() for item in pair)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("error: data:") and f'"{chunk}"' in err[-1]
        assert not (tmp_path / "cal.txt").exists()

    @pytest.mark.parametrize("section,line,message", [
        _bad_config("algorithm", "window = abc", "bad value 'abc' for window in [algorithm] of "),
        _bad_config("algorithm", "smoothing = 2",
                    "bad value '2' for smoothing in [algorithm] of "),
        _bad_config("packet", "rssi_floor_dbm = low",
                    "bad value 'low' for rssi_floor_dbm in [packet] of "),
        _bad_config("packet", "rssi_floor_dbm = nan",
                    "bad value 'nan' for rssi_floor_dbm in [packet] of "),
        _bad_config("setup", "dwell_ms = x", "bad value 'x' for dwell_ms in [setup] of "),
        _bad_config("algorithm", "theta_step_deg = 0",
                    "theta_step_deg and dist_step_m must be positive"),
        _bad_config("algorithm", "dist_step_m = 0",
                    "theta_step_deg and dist_step_m must be positive"),
        _bad_config("algorithm", "theta_min_deg = nan",
                    "[algorithm] theta_min_deg must be a finite number, got 'nan' in "),
        _bad_config("algorithm", "dist_max_m = inf",
                    "[algorithm] dist_max_m must be a finite number, got 'inf' in "),
        _bad_config("packet", "rssi_floor_dbm = -inf",
                    "bad value '-inf' for rssi_floor_dbm in [packet] of "),
        # refused by their bounds, before the window or the grids are allocated
        _bad_config("algorithm", "window = 100000000000000000000", "averaging window "),
        _bad_config("algorithm", "theta_max_deg = 1e300", "the grids hold 1e+300 bearings "),
        _bad_config("algorithm", "dist_max_m = 1e300", "the grids hold 360 bearings x 4e+300 "),
        _bad_config("algorithm", "theta_step_deg = 1e-300", "the grids hold 3.59e+302 "),
        _bad_config("setup", "scan_period_s = 1e308", "scan_period_s must be at most "),
        _bad_config("setup", "stale_timeout_s = 1e308", "stale_timeout_s must be at most "),
        _bad_config("setup", f"dwell_ms = {10**400}", "dwell_ms must be at most ",
                    id="setup-dwell_ms = 10**400"),
        _bad_config("setup", f"dwell_ms = {10**305}", "dwell_ms must be at most ",
                    id="setup-dwell_ms = 10**305"),
    ])
    def test_malformed_config_value_exit_2(self, tmp_path, capsys, section, line, message):
        # [setup] is read by `scan`, the rest by `bearing`
        config = tmp_path / "bad.ini"
        config.write_text(f"[{section}]\n{line}\n")
        argv = (_trajectory_argv(tmp_path, "scan") if section == "setup"
                else self._empty_bearing_argv(tmp_path))
        assert main([*argv, "--config", str(config)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: data: {message}")

    def test_window_flag_beyond_bound_exit_2(self, tmp_path, capsys):
        code = main([*self._empty_bearing_argv(tmp_path), "--window", "100000000000000000000"])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: data: averaging window ")

    @staticmethod
    def _empty_bearing_argv(tmp_path) -> list[str]:
        """`bearing` on an empty capture with a zero calibration."""
        from csisense import ArrayGeometry, CalibrationMatrix, ChannelSpec, save_calibration

        chan = ChannelSpec(155, 80)
        cal = tmp_path / "cal.txt"
        save_calibration(cal, CalibrationMatrix(np.zeros((4, chan.n_sub)), chan),
                         ArrayGeometry.square(0.02336))
        capture = tmp_path / "empty.wcap"
        codec.write_capture(capture, [])
        return ["bearing", "--capture", str(capture), "--calibration", str(cal),
                "--out", str(tmp_path / "b.csv")]

    @pytest.mark.parametrize("text,named", [
        ("[channel]\nchannel = 36\n", "[channel]"),
        ("[channel]\nbandwidth = 20\n", "[channel]"),
        ("[setup]\nscan = true\n", "'scan'"),
    ])
    def test_config_keys_nothing_reads_exit_2(self, tmp_path, capsys, text, named):
        capture = tmp_path / "empty.wcap"
        codec.write_capture(capture, [])
        config = tmp_path / "cfg.ini"
        config.write_text(text)
        assert main(["decode", "--capture", str(capture), "--config", str(config)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("error: data:") and named in err[-1]

    @pytest.mark.parametrize("command", ["simulate", "scan"])
    @pytest.mark.parametrize("key,value", [
        ("rate_hz", "0"), ("rate_hz", "-2"), ("rate_hz", "nan"), ("n", "0"), ("n", "-3"),
    ])
    def test_bad_trajectory_value_exit_2(self, tmp_path, capsys, command, key, value):
        assert main(_trajectory_argv(tmp_path, command, **{key: value})) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("error: data: [trajectory]") and f" {key} " in err[-1]
        assert not (tmp_path / "c.wcap").exists()

    @pytest.mark.parametrize("command", ["simulate", "scan"])
    @pytest.mark.parametrize("kind,key", [("disc", "n"), ("loop", "n"), ("line", "n"),
                                          ("loop", "laps")])
    def test_oversized_trajectory_integer_exit_2(self, tmp_path, capsys, command, kind, key):
        # one pose past the bound, refused before any is made; a lap count no
        # float holds
        value = scenario_module.MAX_POSES + 1 if key == "n" else 10**330
        assert main(_trajectory_argv(tmp_path, command, kind=kind, **{key: str(value)})) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: data: [trajectory] {key} must ")
        assert not (tmp_path / "c.wcap").exists() and not (tmp_path / "w.csv").exists()

    @pytest.mark.parametrize("length,width,message", [
        ("0", "0", "length_m and width_m must not both be 0"),
        ("-5", "5", "length_m must not be negative, got -5"),
        ("-10", "2", "length_m must not be negative, got -10"),
    ])
    def test_degenerate_loop_exit_2(self, tmp_path, capsys, length, width, message):
        argv = _trajectory_argv(tmp_path, "simulate", kind="loop", length_m=length,
                                width_m=width)
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: data: [trajectory] {message}"]
        assert not (tmp_path / "c.wcap").exists()

    @pytest.mark.parametrize("command", ["simulate", "scan"])
    def test_disc_inside_keep_out_exit_2(self, tmp_path, command):
        # No pose of a 0.1 m disc clears the 0.5 m keep-out around its center.
        _assert_radius_rejected(tmp_path, command, "0.1")

    @pytest.mark.parametrize("command", ["simulate", "scan"])
    def test_disc_just_outside_keep_out_exit_2(self, tmp_path, command):
        # Rejection sampling would keep about one draw in 2.5 million here.
        _assert_radius_rejected(tmp_path, command, "0.5000001")

    @pytest.mark.parametrize("command", ["simulate", "scan"])
    @pytest.mark.parametrize("kind,keys,named", [
        ("disc", {"x0": "3", "length_m": "40", "laps": "7"}, "['laps', 'length_m', 'x0']"),
        ("file", {"n": "80"}, "['n']"),
        ("loop", {"radius_m": "5"}, "['radius_m']"),
        ("line", {"laps": "2"}, "['laps']"),
    ])
    def test_foreign_trajectory_keys_exit_2(self, tmp_path, capsys, command, kind, keys,
                                            named):
        poses = tmp_path / "poses.csv"
        poses.write_text("timestamp_ns,x,y,theta\n0,3,0,0\n")
        own = {"file": {"file": str(poses)}}.get(kind, {})
        argv = _trajectory_argv(tmp_path, command, kind=kind, **own, **keys)
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith(f"error: data: unknown keys {named} in [trajectory]")
        assert err[-1].endswith(f"for kind = {kind}")

    @pytest.mark.parametrize("command", ["simulate", "scan"])
    @pytest.mark.parametrize("array,unread", [
        ("layout = square\ncount = 4\nspacing_m = 0.02336", "['count']"),
        ("layout = square\nspacing_m = 0.02336\nspacing = half-wavelength", "['spacing']"),
        ("antennas = 0,0; 0.02336,0; 0.02336,0.02336; 0,0.02336\nlayout = linear-x\n"
         "count = 4\nspacing = half-wavelength", "['count', 'layout', 'spacing']"),
    ], ids=["count-under-square", "spacing-beside-spacing_m", "layout-beside-antennas"])
    def test_array_keys_its_form_does_not_read_exit_2(self, tmp_path, capsys, command, array,
                                                      unread):
        argv = _trajectory_argv(tmp_path, command)
        scenario = tmp_path / "traj.ini"
        scenario.write_text(scenario.read_text().replace(
            "layout = square\nspacing_m = 0.02336", array))
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: data: unknown keys {unread} in [array] of {scenario}"]
        assert not (tmp_path / "c.wcap").exists() and not (tmp_path / "w.csv").exists()

    @pytest.mark.parametrize("command", ["simulate", "scan"])
    def test_more_antennas_than_a_frame_carries_exit_2_at_load(self, tmp_path, capsys,
                                                               command):
        argv = _trajectory_argv(tmp_path, command)
        scenario = tmp_path / "traj.ini"
        scenario.write_text(scenario.read_text().replace(
            "layout = square\nspacing_m = 0.02336", "layout = linear-y\ncount = 5\n"
            "spacing_m = 0.02336"))
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: data: bad value '5' for count in [array] of {scenario}: "
            "5 antennas; a frame carries at most 4"]
        assert not (tmp_path / "c.wcap").exists() and not (tmp_path / "w.csv").exists()

    @pytest.mark.parametrize("command", ["calibrate", "profile"])
    def test_geometry_flag_of_more_antennas_than_a_frame_carries_exit_2(
            self, workspace, capsys, command):
        tmp_path, scenario = workspace
        capture, poses = tmp_path / "c.wcap", tmp_path / "p.csv"
        assert main(["simulate", "--scenario", str(scenario),
                     "--capture", str(capture), "--poses", str(poses)]) == 0
        capsys.readouterr()
        geometry = GEOMETRY + "; 0.01,0.01"
        out = tmp_path / "out"
        argv = {"calibrate": ["--poses", str(poses), "--tx", "0,0"], "profile": []}[command]
        assert main([command, "--capture", str(capture), *argv, "--geometry", geometry,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: data: bad --geometry '{geometry}': 5 antennas; a frame carries at most 4"]
        assert not out.exists()

    def test_calibration_geometry_of_fewer_antennas_than_rows_exit_2_at_load(
            self, tmp_path, capsys):
        capture, cal = ula_capture(tmp_path, "y", [0.0, 0.5])
        cal.write_text("; ".join(cal.read_text().split("; ")[:-1]) + "\n"
                       + cal.read_text().partition("\n\n")[2])
        out = tmp_path / "b.csv"
        assert main(["bearing", "--capture", str(capture), "--calibration", str(cal),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: data: geometry in {cal} lists 3 antennas for 4 rows"]
        assert not out.exists()

    def test_repeated_config_key_exit_2(self, tmp_path, capsys):
        capture, cal = ula_capture(tmp_path, "y", [0.0])
        config = tmp_path / "twice.ini"
        config.write_text("[algorithm]\nwindow = 2\nwindow = 3\n")
        out = tmp_path / "b.csv"
        assert main(["bearing", "--capture", str(capture), "--calibration", str(cal),
                     "--out", str(out), "--config", str(config)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: data: bad config file {config}: ")
        assert "option 'window' in section 'algorithm' already exists" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "scan"])
    def test_empty_pose_file_trajectory_exit_2(self, tmp_path, capsys, command):
        poses = tmp_path / "empty.csv"
        poses.write_text("timestamp_ns,x,y,theta\n")
        assert main(_trajectory_argv(tmp_path, command, kind="file", file=str(poses))) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == "error: data: [trajectory] file holds no poses"

    def test_malformed_config_value_names_file_section_and_key(self, tmp_path, capsys):
        config = tmp_path / "bad.ini"
        config.write_text("[packet]\nrssi_floor_dbm = low\n")
        code = main(["decode", "--capture", str(tmp_path / "none.wcap"),
                     "--config", str(config)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: data:")
        assert "rssi_floor_dbm" in err and "[packet]" in err and str(config) in err

    @pytest.mark.parametrize("line", [
        "scan_period_s = nan", "scan_period_s = inf", "stale_timeout_s = inf",
        "switch_margin_db = nan",
    ])
    def test_non_finite_setup_value_exit_2(self, tmp_path, capsys, line):
        scenario = tmp_path / "scan.ini"
        scenario.write_text(SCAN_SCENARIO)
        config = tmp_path / "setup.ini"
        config.write_text(f"[setup]\n{line}\n")
        assert main(["scan", "--scenario", str(scenario), "--config", str(config),
                     "--out", str(tmp_path / "walk.csv")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith(f"error: data: [setup] {line.split()[0]} must be a finite")
        assert not (tmp_path / "walk.csv").exists()

    @pytest.mark.parametrize("old,new", [
        ("snr_db = 30", "snr_db = nan"), ("snr_db = 30", "snr_db = -inf"),
    ])
    def test_non_finite_snr_exit_2(self, tmp_path, capsys, old, new):
        scenario = tmp_path / "bad.ini"
        scenario.write_text(CALIB_SCENARIO.replace(old, new))
        assert main(["simulate", "--scenario", str(scenario), "--capture",
                     str(tmp_path / "c.wcap"), "--poses", str(tmp_path / "p.csv")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("error: data: [simulation] snr_db must be a finite number")
        assert not (tmp_path / "c.wcap").exists()

    def test_non_finite_ap_power_exit_2(self, tmp_path, capsys):
        scenario = tmp_path / "scan.ini"
        scenario.write_text(SCAN_SCENARIO.replace("power_dbm = -30", "power_dbm = nan", 1))
        assert main(["scan", "--scenario", str(scenario), "--out",
                     str(tmp_path / "walk.csv")]) == 2
        err = capsys.readouterr().err
        assert "[ap.1] power_dbm must be a finite number, got 'nan'" in err

    def test_nan_rssi_floor_flag_exit_2(self, tmp_path, capsys):
        # a NaN floor would pass every frame: no RSSI compares below it
        capture = tmp_path / "empty.wcap"
        codec.write_capture(capture, [])
        assert main(["decode", "--capture", str(capture), "--rssi-floor", "nan"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("error: data:") and "NaN" in err[-1]

    def test_non_numeric_scenario_value_exit_2(self, tmp_path, capsys):
        scenario = tmp_path / "bad.ini"
        scenario.write_text(CALIB_SCENARIO.replace("n = 80", "n = abc"))
        code = main(["simulate", "--scenario", str(scenario),
                     "--capture", str(tmp_path / "c.wcap"), "--poses", str(tmp_path / "p.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: data:")
        assert "[trajectory]" in err and " n " in err and str(scenario) in err

    def test_short_pose_row_exit_2(self, workspace, capsys):
        tmp_path, scenario = workspace
        capture, poses = tmp_path / "c.wcap", tmp_path / "p.csv"
        assert main(["simulate", "--scenario", str(scenario),
                     "--capture", str(capture), "--poses", str(poses)]) == 0
        lines = poses.read_text().splitlines()
        poses.write_text("\n".join(lines[:2] + ["0,1,2"] + lines[3:]) + "\n")
        code = main(["calibrate", "--capture", str(capture), "--poses", str(poses),
                     "--tx", "0,0", "--geometry", GEOMETRY,
                     "--out", str(tmp_path / "cal.txt")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and "line 3" in err

    def test_non_numeric_calibration_value_exit_2(self, tmp_path, capsys):
        from csisense import ArrayGeometry, CalibrationMatrix, ChannelSpec, save_calibration

        chan = ChannelSpec(155, 80)
        cal = tmp_path / "cal.txt"
        save_calibration(cal, CalibrationMatrix(np.zeros((4, chan.n_sub)), chan),
                         ArrayGeometry.square(0.02336))
        cal.write_text(cal.read_text().replace("\n0,", "\nzero,", 1))
        capture = tmp_path / "empty.wcap"
        codec.write_capture(capture, [])
        code = main(["bearing", "--capture", str(capture), "--calibration", str(cal),
                     "--out", str(tmp_path / "b.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and str(cal) in err

    def test_profile_takes_one_array_layout_source(self, workspace, capsys):
        tmp_path, scenario = workspace
        capture, _, cal, _ = run_pipeline(tmp_path, scenario)
        base = ["profile", "--capture", str(capture), "--out", str(tmp_path / "p.pgm")]
        capsys.readouterr()
        assert main(base) == 1
        assert main([*base, "--calibration", str(cal), "--geometry", GEOMETRY]) == 1
        assert "not allowed with argument" in capsys.readouterr().err
        assert not (tmp_path / "p.pgm").exists()

    def test_profile_malformed_geometry_exit_2(self, workspace, capsys):
        tmp_path, scenario = workspace
        capture, poses = tmp_path / "c.wcap", tmp_path / "p.csv"
        assert main(["simulate", "--scenario", str(scenario),
                     "--capture", str(capture), "--poses", str(poses)]) == 0
        code = main(["profile", "--capture", str(capture), "--geometry", "0,0; 1;2",
                     "--out", str(tmp_path / "p.pgm")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: data:")

    def test_low_confidence_exit_3(self, tmp_path, capsys):
        # pure-noise data has no dominant component: spectral gap < 3
        scenario = tmp_path / "noisy.ini"
        scenario.write_text(CALIB_SCENARIO.replace("snr_db = 30", "snr_db = -25"))
        capture, poses = tmp_path / "c.wcap", tmp_path / "p.csv"
        assert main(["simulate", "--scenario", str(scenario),
                     "--capture", str(capture), "--poses", str(poses)]) == 0
        code = main(["calibrate", "--capture", str(capture), "--poses", str(poses),
                     "--tx", "0,0", "--geometry", GEOMETRY,
                     "--out", str(tmp_path / "cal.txt")])
        assert code == 3
        assert "error: low-confidence:" in capsys.readouterr().err


class TestUndecodableTextInputs:
    """A .cal or pose file that is not UTF-8 text exits 2 with one line naming it."""

    @pytest.mark.parametrize("command", ["bearing", "profile", "calibrate", "simulate"])
    def test_exit_2_naming_the_file(self, tmp_path, capsys, command):
        capture, _ = ula_capture(tmp_path, "y", [0.0])
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe\n0,1\n")
        out = tmp_path / "out"
        argv, kind = {
            "bearing": (["bearing", "--capture", str(capture), "--calibration", str(bad),
                         "--out", str(out)], "calibration"),
            "profile": (["profile", "--capture", str(capture), "--calibration", str(bad),
                         "--out", str(out)], "calibration"),
            "calibrate": (["calibrate", "--capture", str(capture), "--poses", str(bad),
                           "--tx", "0,0", "--geometry", GEOMETRY, "--out", str(out)], "pose"),
            "simulate": (_trajectory_argv(tmp_path, "simulate", kind="file", file=str(bad)),
                         "pose"),
        }[command]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: data: bad {kind} file {bad}: ")
        assert "can't decode byte 0xff" in err[0]
        assert not out.exists() and not (tmp_path / "c.wcap").exists()


class TestAntennaBound:
    """An antenna position or spacing past MAX_ANTENNA_DISTANCE_M, or a square
    layout its spacing cannot build, exits 2 naming its key.

    In-process, tier-1 turns a RuntimeWarning into an error, so an
    overflow on the way to the refusal fails these tests.
    """

    @pytest.mark.parametrize("command", ["simulate", "scan"])
    @pytest.mark.parametrize("array,key", [
        ("layout = linear-y\ncount = 4\nspacing_m = 1e308", "spacing_m"),
        ("layout = linear-x\ncount = 4\nspacing = -1e308", "spacing"),
        ("layout = square\nspacing_m = 3", "spacing_m"),
        ("antennas = 0,0; 1e308,0; 0,1e308", "antennas"),
    ], ids=["spacing_m", "spacing", "square", "antennas"])
    def test_scenario_array(self, tmp_path, capsys, command, array, key):
        argv = _trajectory_argv(tmp_path, command)
        scenario = tmp_path / "traj.ini"
        scenario.write_text(scenario.read_text().replace(
            "layout = square\nspacing_m = 0.02336", array))
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: data: bad value ")
        assert f" for {key} in [array] of {scenario}: antenna " in err[0]
        assert not (tmp_path / "c.wcap").exists() and not (tmp_path / "w.csv").exists()

    @pytest.mark.parametrize("command", ["simulate", "scan"])
    @pytest.mark.parametrize("key,value,message", [
        ("spacing_m", "1.9", "antenna 2 is 2.687 m from antenna 0; at most 2 m"),
        ("spacing_m", "0", "antenna positions must be distinct"),
        ("spacing", "-1.5", "antenna 2 is 2.121 m from antenna 0; at most 2 m"),
        ("spacing", "0", "antenna positions must be distinct"),
    ])
    def test_square_geometry_names_its_spacing_key(self, tmp_path, capsys, command, key,
                                                   value, message):
        # 1.9 m is a spacing the bound allows, but the square's diagonal is not
        argv = _trajectory_argv(tmp_path, command)
        scenario = tmp_path / "traj.ini"
        scenario.write_text(scenario.read_text().replace(
            "layout = square\nspacing_m = 0.02336", f"layout = square\n{key} = {value}"))
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: data: bad value '{value}' for {key} in [array] of {scenario}: {message}"]
        assert not (tmp_path / "c.wcap").exists() and not (tmp_path / "w.csv").exists()

    @pytest.mark.parametrize("command", ["calibrate", "profile"])
    def test_geometry_flag(self, tmp_path, capsys, command):
        capture, _ = ula_capture(tmp_path, "y", [0.0])
        poses = tmp_path / "p.csv"
        poses.write_text("timestamp_ns,x,y,theta\n0,1,1,0\n")
        geometry = "0,0; 0,1e308"
        out = tmp_path / "out"
        argv = {"calibrate": ["--poses", str(poses), "--tx", "0,0"], "profile": []}[command]
        assert main([command, "--capture", str(capture), *argv, "--geometry", geometry,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: data: bad --geometry '{geometry}': antenna 1 is 1e+308 m from antenna 0; "
            "at most 2 m"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["bearing", "profile"])
    def test_calibration_file_geometry(self, tmp_path, capsys, command):
        capture, cal = ula_capture(tmp_path, "y", [0.0])
        text = cal.read_text()
        geometry = next(line for line in text.splitlines() if line.startswith("geometry"))
        cal.write_text(text.replace(geometry, geometry.rsplit(";", 1)[0] + "; 0,1e308"))
        out = tmp_path / "out"
        assert main([command, "--capture", str(capture), "--calibration", str(cal),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: data: bad geometry in the header of {cal}: antenna 3 is 1e+308 m "
            "from antenna 0; at most 2 m"]
        assert not out.exists()


class TestCoordinateBound:
    """A pose or transmitter coordinate past MAX_COORDINATE_M exits 2 with one
    line naming the file, and the line or the key.

    In-process, tier-1 turns a RuntimeWarning into an error, so an
    overflow on the way to the refusal fails these tests.
    """

    @pytest.mark.parametrize("command", ["simulate", "scan", "calibrate"])
    def test_pose_file_row(self, tmp_path, capsys, command):
        poses = tmp_path / "far.csv"
        poses.write_text("timestamp_ns,x,y,theta\n0,1,0,0\n1000,0,1e308,0\n")
        if command == "calibrate":
            capture, _ = ula_capture(tmp_path, "y", [0.0])
            argv = calibrate_argv(capture, poses, tmp_path / "out.cal")
        else:
            argv = _trajectory_argv(tmp_path, command, kind="file", file=str(poses))
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: data: bad pose on line 3 of {poses}: '1000,0,1e308,0' "
            "(coordinates are at most 1e+06 m)"]
        assert not any((tmp_path / name).exists() for name in ("c.wcap", "w.csv", "out.cal"))

    @pytest.mark.parametrize("kind,keys", [
        ("line", {"x1": "1e308"}),
        ("loop", {"length_m": "1e308"}),
        ("disc", {"center_x": "-1e308"}),
    ])
    def test_built_trajectory(self, tmp_path, capsys, kind, keys):
        argv = _trajectory_argv(tmp_path, "simulate", kind=kind, **keys)
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: data: [trajectory] poses would reach a coordinate of ")
        assert err[0].endswith(" m; at most 1e+06 m")

    def test_transmitter(self, tmp_path, capsys):
        argv = _trajectory_argv(tmp_path, "simulate", kind="line")
        scenario = tmp_path / "traj.ini"
        scenario.write_text(scenario.read_text().replace("[transmitter]\nx = 0.0",
                                                         "[transmitter]\nx = 1e308"))
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: data: bad value '1e308' for x in [transmitter] of {scenario}: "
            "coordinates are at most 1e+06 m"]


    @pytest.mark.parametrize("tx,shown", [("1e308,0", "1e308,0"), ("0,-2e6", "0,-2e6")])
    def test_calibrate_tx_flag(self, tmp_path, capsys, tx, shown):
        # refused before the capture is read: this capture would calibrate
        capture, poses = simulated_capture(tmp_path, 80)
        out = tmp_path / "cal.txt"
        argv = calibrate_argv(capture, poses, out)
        argv[argv.index("--tx") + 1] = tx
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: data: bad --tx '{shown}': coordinates are at most 1e+06 m"]
        assert not out.exists()


class TestRadioLevelBound:
    """`power_dbm`, `path_loss_exponent` and `snr_db` outside their bounds exit
    2 with one line naming the file, the section and the key.

    In-process, tier-1 turns a RuntimeWarning into an error, so an
    overflow on the way to the refusal fails these tests.
    """

    @pytest.mark.parametrize("command", ["simulate", "scan"])
    @pytest.mark.parametrize("section,key,value,bounds", [
        ("simulation", "path_loss_exponent", "-1e300", "[0, 10]"),
        ("simulation", "path_loss_exponent", "1e300", "[0, 10]"),
        ("transmitter", "power_dbm", "1e300", "[-150, 50]"),
        ("transmitter", "power_dbm", "-151", "[-150, 50]"),
        ("simulation", "snr_db", "-4000", "[-100, 300]"),
    ])
    def test_scenario_key(self, tmp_path, capsys, command, section, key, value, bounds):
        argv = _trajectory_argv(tmp_path, command)
        scenario = tmp_path / "traj.ini"
        scenario.write_text(_with_key(scenario.read_text(), section, key, value))
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: data: bad value '{value}' for {key} in [{section}] of {scenario}: "
            f"must lie in {bounds}"]
        assert not (tmp_path / "c.wcap").exists() and not (tmp_path / "w.csv").exists()

    def test_ap_power(self, tmp_path, capsys):
        argv = _trajectory_argv(tmp_path, "scan")
        scenario = tmp_path / "traj.ini"
        scenario.write_text(_with_key(scenario.read_text(), "ap.2", "power_dbm", "1e300"))
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: data: bad value '1e300' for power_dbm in [ap.2] of {scenario}: "
            "must lie in [-150, 50]"]
        assert not (tmp_path / "w.csv").exists()


class TestPoseNextToTransmitter:
    """A pose so near the transmitter that its path level or its csi
    overflows exits 2 with one line naming the pose's timestamp_ns, warns
    of nothing and writes no capture.

    In-process, tier-1 turns a RuntimeWarning into an error, so an
    overflow on the way to the refusal fails these tests.
    """

    @pytest.mark.parametrize("x,power_dbm,exponent,message", [
        ("1e-9", "50", "10", "frame at timestamp_ns 1000: csi overflows complex64"),
        ("1e-300", "-30", "2.2",
         "pose at timestamp_ns 1000: a path amplitude overflows the float range"),
    ])
    def test_refused_naming_the_pose(self, tmp_path, capsys, x, power_dbm, exponent,
                                     message):
        poses = tmp_path / "near.csv"
        poses.write_text(f"timestamp_ns,x,y,theta\n0,1,0,0\n1000,{x},0,0\n")
        argv = _trajectory_argv(tmp_path, "simulate", kind="file", file=str(poses))
        scenario = tmp_path / "traj.ini"
        text = _with_key(scenario.read_text(), "transmitter", "power_dbm", power_dbm)
        scenario.write_text(_with_key(text, "simulation", "path_loss_exponent", exponent))
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: data: {message}"]
        assert "Warning" not in captured.out + captured.err
        assert not (tmp_path / "c.wcap").exists() and not (tmp_path / "p.csv").exists()


# A [reflection.1] section that `simulate` accepts.
_REFLECTION = {"aoa_offset_deg": "30", "excess_delay_ns": "8", "rel_amplitude": "0.7"}


class TestReflectionBound:
    """`[reflection.N]` keys outside their bounds exit 2 with one line naming
    the file, the section and the key, and nothing is simulated.

    In-process, tier-1 turns a RuntimeWarning into an error, so an
    overflow on the way to the refusal fails these tests.
    """

    @staticmethod
    def _argv(tmp_path, **keys: str) -> tuple[list[str], Path]:
        argv = _trajectory_argv(tmp_path, "simulate")
        scenario = tmp_path / "traj.ini"
        text = scenario.read_text()
        for key, value in {**_REFLECTION, **keys}.items():
            text = _with_key(text, "reflection.1", key, value)
        scenario.write_text(text)
        return argv, scenario

    @pytest.mark.parametrize("key,value,bounds", [
        ("rel_amplitude", "1e300", "must be non-zero and lie in [-100, 100]"),
        ("rel_amplitude", "-1e300", "must be non-zero and lie in [-100, 100]"),
        ("rel_amplitude", "0", "must be non-zero and lie in [-100, 100]"),
        ("excess_delay_ns", "1e300", "must lie in [0, 10000]"),
        ("excess_delay_ns", "-50", "must lie in [0, 10000]"),
        ("aoa_offset_deg", "1e300", "must lie in [-360, 360]"),
        ("aoa_offset_deg", "-361", "must lie in [-360, 360]"),
    ])
    def test_key_out_of_bounds(self, tmp_path, capsys, key, value, bounds):
        argv, scenario = self._argv(tmp_path, **{key: value})
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: data: bad value '{value}' for {key} in [reflection.1] of {scenario}: "
            f"{bounds}"]
        assert not (tmp_path / "c.wcap").exists()

    def test_bounds_are_inclusive(self, tmp_path):
        argv, _ = self._argv(tmp_path, rel_amplitude="-100", excess_delay_ns="10000",
                             aoa_offset_deg="-360")
        assert main(argv) == 0


def _with_key(text: str, section: str, key: str, value: str) -> str:
    """Scenario `text` with `key = value` in `section`, replacing any such key there."""
    sections = re.split(r"(?m)^(?=\[)", text)
    named = [k for k, body in enumerate(sections) if body.startswith(f"[{section}]\n")]
    if not named:
        return f"[{section}]\n{key} = {value}\n\n" + text
    header, _, body = sections[named[0]].partition("\n")
    body = re.sub(rf"(?m)^{key} = .*\n", "", body)
    sections[named[0]] = f"{header}\n{key} = {value}\n{body}"
    return "".join(sections)


def simulated_capture(tmp_path, n: int) -> tuple[Path, Path]:
    """`simulate` of CALIB_SCENARIO cut to n poses: its capture and pose file."""
    scenario = tmp_path / "calib.ini"
    scenario.write_text(CALIB_SCENARIO.replace("n = 80", f"n = {n}"))
    capture, poses = tmp_path / "c.wcap", tmp_path / "p.csv"
    assert main(["simulate", "--scenario", str(scenario),
                 "--capture", str(capture), "--poses", str(poses)]) == 0
    return capture, poses


def calibrate_argv(capture, poses, out, *flags: str) -> list[str]:
    return ["calibrate", "--capture", str(capture), "--poses", str(poses), "--tx", "0,0",
            "--geometry", GEOMETRY, "--out", str(out), *flags]


class TestCalibrateCommand:
    def test_prints_four_lines_each_computed(self, tmp_path, capsys):
        capture, poses = simulated_capture(tmp_path, 80)
        out = tmp_path / "cal.txt"
        capsys.readouterr()
        assert main(calibrate_argv(capture, poses, out)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.partition(" = ")[0] for line in lines] == [
            "pairs", "spectral_gap", "objective_coarse", "calibration"]
        assert lines[0] == "pairs = 80" and lines[-1] == f"calibration = {out}"

    def test_min_pairs_above_the_pose_count_exit_2(self, tmp_path, capsys):
        capture, poses = simulated_capture(tmp_path, 80)
        out = tmp_path / "cal.txt"
        capsys.readouterr()
        assert main(calibrate_argv(capture, poses, out, "--min-pairs", "81")) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: data: 80 pose/frame pairs; at least 81 required"]
        assert not out.exists()

    def test_min_pairs_below_a_small_capture_succeeds(self, tmp_path, capsys):
        capture, poses = simulated_capture(tmp_path, 20)
        out = tmp_path / "cal.txt"
        assert main(calibrate_argv(capture, poses, out)) == 2  # the default asks for 50
        capsys.readouterr()
        assert main(calibrate_argv(capture, poses, out, "--min-pairs", "20")) == 0
        assert capsys.readouterr().out.splitlines()[0] == "pairs = 20"
        assert load_calibration(out)[0].n_rx == 4

    def test_repeated_pose_timestamp_exit_2(self, tmp_path, capsys):
        # a later pose for a timestamp must not replace the earlier one
        # unnoticed: five wrong repeats would still calibrate, to another file
        capture, poses = simulated_capture(tmp_path, 80)
        lines = poses.read_text().splitlines()
        repeats = [f"{row.split(',')[0]},3,4,0" for row in lines[1:6]]
        poses.write_text("\n".join(lines + repeats) + "\n")
        out = tmp_path / "cal.txt"
        capsys.readouterr()
        assert main(calibrate_argv(capture, poses, out)) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: data: bad pose on line 82 of {poses}: '{repeats[0]}' "
            "(timestamp repeats line 2)"]
        assert captured.out == "" and not out.exists()

    def test_tx_antenna_out_of_range_exit_2(self, tmp_path, capsys):
        capture, poses = simulated_capture(tmp_path, 60)
        out = tmp_path / "cal.txt"
        capsys.readouterr()
        assert main(calibrate_argv(capture, poses, out, "--tx-antenna", "1")) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: data: tx index 1 out of range"]
        assert not out.exists()

    def test_tx_antenna_selects_the_library_slice(self, tmp_path):
        capture, poses = simulated_capture(tmp_path, 60)
        frames = [dataclasses.replace(f, csi=np.concatenate(
                      [f.csi, 0.5j * f.csi[:, :, ::-1]], axis=1))
                  for f in read_capture(capture)]
        two_tx = tmp_path / "two_tx.wcap"
        codec.write_capture(two_tx, frames)
        out = tmp_path / "cal.txt"
        assert main(calibrate_argv(two_tx, poses, out, "--tx-antenna", "1")) == 0
        geom = parse_geometry(GEOMETRY)
        by_ts = dict(read_poses_csv(poses))
        dataset = CalibrationDataset([(by_ts[f.timestamp_ns], f) for f in frames],
                                     np.zeros(2), geom, frames[0].chanspec)
        expected = tmp_path / "expected.txt"
        save_calibration(expected, calibrate(dataset, tx_index=1).matrix, geom)
        assert out.read_bytes() == expected.read_bytes()
        slice_0 = tmp_path / "slice0.txt"
        save_calibration(slice_0, calibrate(dataset, tx_index=0).matrix, geom)
        assert out.read_bytes() != slice_0.read_bytes()

    @pytest.mark.parametrize("case", ["missing pose before undecodable record",
                                      "foreign channel", "three antennas", "tx antenna",
                                      "min pairs before foreign channel", "empty capture",
                                      "one frame", "cut short",
                                      "missing pose after foreign channel", "all-zero csi",
                                      "header counts 2**40 frames"])
    def test_fault_prints_one_data_line(self, tmp_path, capsys, case):
        """Each fault prints one line and exits 2.  Where two meet, the line is
        the one a frame-by-frame pass meets first: the missing pose of record
        40 before the undecodable record 45 of the same ingest block, the
        pair count before the foreign channel of record 70, and the missing
        pose of record 75 before that foreign channel too, since a block
        check stops the computing but not the reading of poses."""
        capture, poses = simulated_capture(tmp_path, 1 if case == "one frame" else 80)
        frames = read_capture(capture)
        flags = {"tx antenna": ["--tx-antenna", "1"], "one frame": ["--min-pairs", "1"],
                 "min pairs before foreign channel": ["--min-pairs", "81"]}.get(case, [])
        if "foreign channel" in case:
            foreign = ChannelSpec(36, 20)
            frames[70] = dataclasses.replace(frames[70], chanspec=foreign,
                                             csi=frames[70].csi[:, :, :foreign.n_sub])
        elif case == "three antennas":
            frames[10] = dataclasses.replace(frames[10], csi=frames[10].csi[:3])
        elif case == "all-zero csi":
            frames = [dataclasses.replace(f, csi=np.zeros_like(f.csi)) for f in frames]
        codec.write_capture(capture, [] if case == "empty capture" else frames)
        raw = capture.read_bytes()
        expected = {
            "foreign channel": "all frames must share the dataset chanspec",
            "three antennas": "frame antenna count does not match geometry",
            "tx antenna": "tx index 1 out of range",
            "min pairs before foreign channel": "80 pose/frame pairs; at least 81 required",
            "empty capture": "capture holds no frames",
            "one frame": "need at least 2 snapshots",
            "cut short": "frame 79 of 80 cut short",
            "all-zero csi": "degenerate all-zero snapshots",
            "header counts 2**40 frames": f"capture ends at frame 80 of {2 ** 40}",
        }.get(case)
        if case == "cut short":
            capture.write_bytes(raw[:-100])
        elif case == "header counts 2**40 frames":  # too many to size the data matrix by
            capture.write_bytes(raw[:8] + (2 ** 40).to_bytes(8, "little") + raw[16:])
        elif case == "missing pose after foreign channel":
            lines = poses.read_text().splitlines(keepends=True)
            poses.write_text("".join(lines[:76] + lines[77:]))  # line 77: record 75
            expected = (f"no pose with timestamp {frames[75].timestamp_ns}; "
                        "poses and capture must be time-aligned")
        elif case.startswith("missing pose"):
            lines = poses.read_text().splitlines(keepends=True)
            poses.write_text("".join(lines[:41] + lines[42:]))  # line 41: record 40
            record = len(codec.encode_frame(frames[0])) + 4
            at = codec.CAPTURE_HEADER_SIZE + 45 * record + 4
            capture.write_bytes(raw[:at] + b"NOPE" + raw[at + 4:])
            expected = (f"no pose with timestamp {frames[40].timestamp_ns}; "
                        "poses and capture must be time-aligned")
        out = tmp_path / "cal.txt"
        capsys.readouterr()
        assert main(calibrate_argv(capture, poses, out, *flags)) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: data: {expected}"]
        assert captured.out == "" and not out.exists()

    def test_traced_peak_holds_little_beyond_the_snapshot_matrix(self, tmp_path):
        """Each ingest block becomes its columns of the data matrix M as it
        arrives, and no block is kept once they are written.  On 200 frames
        of 80 MHz (M: 3.0 MB of complex128) the call's traced peak stays
        within 0.75 M above M.  Measured: 0.45 M; 1.47 M when the capture's
        csi was gathered whole before M was filled."""
        capture, poses = simulated_capture(tmp_path, 200)
        argv = calibrate_argv(capture, poses, tmp_path / "cal.txt")
        assert main(argv) == 0  # the first call fills caches; the second is traced
        m_bytes = 4 * ChannelSpec(155, 80).n_sub * 200 * np.dtype(np.complex128).itemsize
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - m_bytes < 0.75 * m_bytes


class TestScan:
    def test_walkthrough_csv_and_summary(self, tmp_path, capsys):
        scenario = tmp_path / "scan.ini"
        scenario.write_text(SCAN_SCENARIO)
        out = tmp_path / "walk.csv"
        assert main(["scan", "--scenario", str(scenario), "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "fraction_tuned_to_nearest" in captured
        fraction = float([l for l in captured.splitlines()
                          if l.startswith("fraction")][0].split("=")[1])
        assert fraction >= 0.9
        assert out.read_text().startswith("time_s,x,y,tuned_channel")


class TestBearingAlgorithms:
    def test_music_and_window_flags(self, workspace):
        tmp_path, scenario = workspace
        capture, poses, cal, _ = run_pipeline(tmp_path, scenario)
        out = tmp_path / "music.csv"
        assert main(["bearing", "--capture", str(capture), "--calibration", str(cal),
                     "--out", str(out), "--algorithm", "music"]) == 0
        assert len(out.read_text().splitlines()) == 81

    def test_music_window_uses_last_frames(self, workspace):
        tmp_path, scenario = workspace
        capture, _, cal, _ = run_pipeline(tmp_path, scenario)
        out = tmp_path / "music3.csv"
        assert main(["bearing", "--capture", str(capture), "--calibration", str(cal),
                     "--out", str(out), "--algorithm", "music", "--window", "3"]) == 0
        correction, geom = load_calibration(str(cal))
        cfg = AoaConfig(algorithm="music", window=3)
        calibrated = [apply_calibration(correction, f) for f in read_capture(capture)]
        expected = []
        for k, frame in enumerate(calibrated):
            spectrum = music_spectrum(calibrated[max(0, k - 2): k + 1], geom, cfg)
            expected.append(estimate_bearing(spectrum, frame.rssi_dbm, cfg,
                                             source_mac=frame.source_mac,
                                             timestamp_ns=frame.timestamp_ns))
        assert out.read_bytes() == bearings_csv(expected)

    def test_spotfi_window_uses_last_frames(self, tmp_path, capsys):
        capture, cal = ula_capture(tmp_path, "y", np.radians([12.0, 14.0, 17.0, 15.0]))
        out = tmp_path / "spotfi2.csv"
        assert main(["bearing", "--capture", str(capture), "--calibration", str(cal),
                     "--out", str(out), "--algorithm", "spotfi", "--window", "2"]) == 0
        assert capsys.readouterr().err.startswith("spotfi smoothing = 2,122\n")
        correction, geom = load_calibration(str(cal))
        cfg = AoaConfig(algorithm="spotfi", window=2)
        calibrated = [apply_calibration(correction, f) for f in read_capture(capture)]
        expected = [estimate_bearing(spotfi_pseudo(calibrated[max(0, k - 1): k + 1], geom,
                                                   cfg).max(axis=1),
                                     frame.rssi_dbm, cfg, source_mac=frame.source_mac,
                                     timestamp_ns=frame.timestamp_ns)
                    for k, frame in enumerate(calibrated)]
        assert out.read_bytes() == bearings_csv(expected)

    @pytest.fixture(scope="class")
    def ula150(self, tmp_path_factory):
        return ula_capture(tmp_path_factory.mktemp("ula150"), "y",
                           np.radians(14.0 + 3.0 * np.sin(np.arange(150) / 7.0)))

    @pytest.mark.parametrize("algorithm, window, n_sources", [
        *[(algorithm, window, 1) for algorithm in ("bartlett", "music") for window in (1, 4, 8)],
        *[("music", window, n_sources) for window in (1, 4, 8) for n_sources in (2, 3)],
        ("spotfi", 1, 1), ("spotfi", 2, 1), ("spotfi", 1, 2)])
    def test_library_estimator_writes_the_cli_bytes(self, tmp_path, ula150, algorithm, window,
                                                    n_sources):
        """The CLI estimates blocks of frames; the library, one frame at a time
        and, for MUSIC and SpotFi, from each window's own spectrum.  On a
        capture of more than two blocks all of them write the same bytes."""
        capture, cal = ula150
        out = tmp_path / "cli.csv"
        assert main(["bearing", "--capture", str(capture), "--calibration", str(cal),
                     "--out", str(out), "--algorithm", algorithm, "--window", str(window),
                     "--n-sources", str(n_sources)]) == 0
        correction, geom = load_calibration(str(cal))
        cfg = AoaConfig(algorithm=algorithm, window=window, n_sources=n_sources)
        frames = [apply_calibration(correction, frame) for frame in read_capture(capture)]
        assert len(frames) > 2 * codec.REPLAY_BLOCK
        assert len(out.read_bytes().splitlines()) == 151
        assert out.read_bytes() == bearings_csv(frame_by_frame(geom, cfg, frames))
        if algorithm != "bartlett":
            spectrum = (music_spectrum if algorithm == "music"
                        else lambda *args: spotfi_pseudo(*args).max(axis=1))
            assert out.read_bytes() == bearings_csv(
                estimate_bearing(spectrum(frames[max(0, i + 1 - window): i + 1], geom, cfg),
                                 frame.rssi_dbm, cfg, frame.source_mac, frame.timestamp_ns)
                for i, frame in enumerate(frames))

    def test_spotfi_mirror_tie_takes_the_smaller_grid_index(self, tmp_path):
        # an x-axis ULA cannot tell theta from -theta: the two steering
        # rows are bitwise equal, so every profile ties on the mirror pair
        capture, cal = ula_capture(tmp_path, "x", np.radians([30.0, 30.0, 30.0]))
        out = tmp_path / "tie.csv"
        assert main(["bearing", "--capture", str(capture), "--calibration", str(cal),
                     "--out", str(out), "--algorithm", "spotfi"]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [row[2] for row in rows] == ["-30.0000"] * 3

    def test_spotfi_on_a_square_fails_before_any_frame(self, workspace, capsys):
        tmp_path, scenario = workspace
        capture, _, cal, _ = run_pipeline(tmp_path, scenario)
        capsys.readouterr()
        assert main(["bearing", "--capture", str(capture), "--calibration", str(cal),
                     "--out", str(tmp_path / "s.csv"), "--algorithm", "spotfi",
                     "--mac-filter", "02:00:00:00:00:99"]) == 2
        assert "uniform linear array" in capsys.readouterr().err

    @pytest.mark.parametrize("algorithm", ["bartlett", "music"])
    def test_rssi_rejections_include_ingest_drops(self, workspace, capsys, algorithm):
        # every frame is either written or counted as rejected by the
        # floor, whichever of the ingest and estimator checks dropped it
        tmp_path, scenario = workspace
        capture, _, cal, _ = run_pipeline(tmp_path, scenario)
        capsys.readouterr()
        out = tmp_path / "floor.csv"
        assert main(["bearing", "--capture", str(capture), "--calibration", str(cal),
                     "--out", str(out), "--algorithm", algorithm,
                     "--rssi-floor", "-41"]) == 0
        summary = capsys.readouterr().err.splitlines()[0]
        written = int(summary.split()[0])
        rejected = int(summary.split("(")[1].split()[0])
        assert rejected > 0
        assert written == len(out.read_text().splitlines()) - 1
        assert written + rejected == len(read_capture(capture))

    @pytest.mark.parametrize("algorithm", ["bartlett", "music"])
    def test_default_floor_applies_before_the_window(self, tmp_path, algorithm):
        # a weaker, farther transmitter: most frames arrive below -65 dBm,
        # the default floor, and must never enter the averaging window
        scenario = tmp_path / "far.ini"
        scenario.write_text(CALIB_SCENARIO.replace("power_dbm = -30", "power_dbm = -55")
                            .replace("radius_m = 5.0", "radius_m = 12.0"))
        capture, _, cal, _ = run_pipeline(tmp_path, scenario)
        n_above = sum(f.rssi_dbm >= -65 for f in read_capture(capture))
        assert 0 < n_above < 20
        written = []
        for floor in ([], ["--rssi-floor", "-65"]):
            out = tmp_path / f"window{len(floor)}.csv"
            assert main(["bearing", "--capture", str(capture), "--calibration", str(cal),
                         "--out", str(out), "--algorithm", algorithm, "--window", "4",
                         *floor]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]
        assert len(written[0].splitlines()) == 1 + n_above


def _free_udp_port() -> int:
    """A loopback UDP port that no socket holds."""
    import socket

    probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def run_over_udp(argv: list[str], datagrams: list[bytes]):
    """`main(argv + ["--udp", port])` in a thread, fed `datagrams` over loopback; its exit code."""
    import socket
    import threading
    import time

    port = _free_udp_port()
    result = {}
    thread = threading.Thread(
        target=lambda: result.update(code=main([*argv, "--udp", str(port)])))
    thread.start()
    time.sleep(0.3)
    sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    for buf in datagrams:
        sender.sendto(buf, ("127.0.0.1", port))
    sender.close()
    thread.join(timeout=10.0)
    return result.get("code")


class TestUdpDecode:
    def test_decode_from_udp_stream(self, tmp_path, capsys):
        rng = np.random.default_rng(77)
        chanspec = ChannelSpec(36, 20)
        frames = []
        for k in range(3):
            csi = (rng.standard_normal((2, 1, 52))
                   + 1j * rng.standard_normal((2, 1, 52))).astype(np.complex64)
            frames.append(CsiFrame(csi=csi, rssi_dbm=-40.0, source_mac=bytes(6),
                                   seq=k, chanspec=chanspec, timestamp_ns=k))
        out = tmp_path / "udp.csv"
        assert run_over_udp(["decode", "--count", "3", "--timeout", "5", "--csv", str(out)],
                            [codec.encode_frame(f) for f in frames]) == 0
        assert len(out.read_text().splitlines()) == 4


# (flags, the one stderr line's message): each is refused before a socket is bound
BAD_UDP_FLAGS = [
    (["--udp", "70000"], "--udp port must be 0-65535, got 70000"),
    (["--udp", "0", "--timeout", "-1"], "--timeout must be finite and above 0 s, got -1.0"),
    (["--udp", "0", "--timeout", "nan"], "--timeout must be finite and above 0 s, got nan"),
    (["--udp", "0", "--timeout", "0"], "--timeout must be finite and above 0 s, got 0.0"),
    (["--udp", "0", "--count", "-3"], "--count must be at least 1, got -3"),
]


class TestUdpFlags:
    @pytest.mark.parametrize("flags, message", BAD_UDP_FLAGS,
                             ids=["port", "timeout-negative", "timeout-nan", "timeout-zero",
                                  "count"])
    @pytest.mark.parametrize("command", ["decode", "bearing"])
    def test_bad_value_exits_2_before_listening(self, tmp_path, capsys, monkeypatch,
                                                command, flags, message):
        monkeypatch.setattr(codec.socket, "socket", None)  # any bind attempt fails loudly
        argv = [command, *flags]
        out = tmp_path / "b.csv"
        if command == "bearing":
            _, cal = ula_capture(tmp_path, "y", [0.0])
            argv += ["--calibration", str(cal), "--out", str(out)]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: data: {message}\n"
        assert not out.exists()


class TestUdpBearing:
    def test_echo_is_the_csv_rows_and_a_fault_keeps_them(self, tmp_path, capsys):
        capture, cal = ula_capture(tmp_path, "y", np.radians([10.0, 20.0, 30.0, 40.0]))
        wire = [codec.encode_frame(f) for f in read_capture(capture)]
        out = tmp_path / "udp.csv"
        argv = ["bearing", "--calibration", str(cal), "--out", str(out), "--count", "4",
                "--timeout", "5", "--rssi-floor", "-200"]
        capsys.readouterr()
        assert run_over_udp(argv, wire) == 0
        captured = capsys.readouterr()
        rows = out.read_text().splitlines()
        assert len(rows) == 5
        assert captured.out.splitlines() == rows[1:]
        assert captured.err.startswith(f"4 bearings written to {out} (")

        foreign = codec.encode_frame(foreign_frame(4, timestamp_ns=99))
        assert run_over_udp(argv, wire[:2] + [foreign] + wire[2:3]) == 2
        captured = capsys.readouterr()
        assert out.read_text().splitlines() == rows[:3]
        assert captured.out.splitlines() == rows[1:3]
        err = captured.err.splitlines()
        assert err[0].startswith("2 bearings written to ")
        assert err[1].startswith("error: data: calibration chanspec") and len(err) == 2


    def test_each_row_is_echoed_before_the_next_datagram(self, tmp_path, capsys):
        # a stream is estimated one datagram at a time, never a capture's block
        import socket
        import threading
        import time

        capture, cal = ula_capture(tmp_path, "y", np.radians([10.0, 20.0]))
        wire = [codec.encode_frame(f) for f in read_capture(capture)]
        port = _free_udp_port()
        argv = ["bearing", "--calibration", str(cal), "--out", str(tmp_path / "udp.csv"),
                "--count", "2", "--timeout", "5", "--rssi-floor", "-200", "--udp", str(port)]
        result = {}
        thread = threading.Thread(target=lambda: result.update(code=main(argv)))
        capsys.readouterr()
        thread.start()
        time.sleep(0.3)
        sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            sender.sendto(wire[0], ("127.0.0.1", port))
            echoed, deadline = "", time.monotonic() + 5.0
            while not echoed and time.monotonic() < deadline:
                time.sleep(0.02)
                echoed = capsys.readouterr().out
            sender.sendto(wire[1], ("127.0.0.1", port))
        finally:
            sender.close()
            thread.join(timeout=10.0)
        assert not thread.is_alive() and result.get("code") == 0
        assert len(echoed.splitlines()) == 1

    def test_summary_counts_undecodable_datagrams(self, tmp_path, capsys):
        capture, cal = ula_capture(tmp_path, "y", np.radians([10.0, 20.0, 30.0, 40.0, 50.0]))
        wire = [codec.encode_frame(f) for f in read_capture(capture)]
        garbage = [b"", b"junk", wire[0][:40], wire[0] + b"x", b"\0" * 32, wire[1][::-1],
                   b"WCSI" * 9]
        out = tmp_path / "udp.csv"
        capsys.readouterr()
        assert run_over_udp(["bearing", "--calibration", str(cal), "--out", str(out),
                             "--count", "12", "--timeout", "5", "--rssi-floor", "-200"],
                            wire[:3] + garbage + wire[3:]) == 0
        assert capsys.readouterr().err == (f"5 bearings written to {out} (0 rejected by rssi "
                                           "floor, 0 by mac filter, 7 undecodable)\n")
        assert len(out.read_text().splitlines()) == 6


def _send_to_listener(port: int, datagrams: list[bytes], timeout_s: float = 60.0) -> None:
    """Send each datagram once to a listener that another process is starting.

    The first is sent again until the port stops refusing it: on a connected
    loopback socket a refusal comes back at once, as an error on the next
    receive, and a delivered datagram raises none."""
    import socket
    import time

    sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sender.connect(("127.0.0.1", port))
    sender.settimeout(0.2)
    deadline = time.monotonic() + timeout_s
    try:
        while True:
            sender.send(datagrams[0])
            try:
                sender.recv(1)
            except ConnectionRefusedError:
                assert time.monotonic() < deadline, "the listener never bound its port"
                time.sleep(0.05)
            except socket.timeout:
                break
        for buf in datagrams[1:]:
            sender.send(buf)
    finally:
        sender.close()


def _read_lines(pipe, n: int, timeout_s: float) -> list[str]:
    """The first n lines readable from a pipe, or all that came before the timeout."""
    import select
    import time

    data, deadline = b"", time.monotonic() + timeout_s
    while data.count(b"\n") < n:
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([pipe], [], [], left)[0]:
            break
        chunk = os.read(pipe.fileno(), 1 << 16)
        if not chunk:
            break
        data += chunk
    return data.decode().splitlines()


class TestUdpListenerProcess:
    """`bearing --udp` as a node runs it: its own process, stdout a pipe, and a
    supervisor that stops it with a signal.  PYTHONUNBUFFERED is removed from
    its environment, since it would make stdout unbuffered."""

    @pytest.fixture()
    def listener(self, tmp_path):
        capture, cal = ula_capture(tmp_path, "y", np.radians([10.0, 20.0, 30.0, 40.0, 50.0]))
        wire = [codec.encode_frame(f) for f in read_capture(capture)]
        out = tmp_path / "live.csv"
        port = _free_udp_port()
        env = _src_env()
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "csisense.cli", "bearing", "--udp", str(port),
             "--calibration", str(cal), "--out", str(out), "--timeout", "60",
             "--rssi-floor", "-200"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            _send_to_listener(port, wire)
            yield proc, out
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.communicate(timeout=30)

    def test_rows_arrive_while_it_listens(self, listener):
        proc, out = listener
        echoed = _read_lines(proc.stdout, 5, 20.0)
        assert len(echoed) == 5
        assert proc.poll() is None  # still listening
        # a row is echoed only once it is flushed to the file
        assert out.read_text() == BEARINGS_CSV_HEADER + "".join(f"{row}\n" for row in echoed)

    @pytest.mark.parametrize("signum, status", [("SIGTERM", 143), ("SIGINT", 130)])
    def test_a_signal_keeps_the_rows_and_prints_the_summary(self, listener, signum, status):
        import signal

        proc, out = listener
        echoed = _read_lines(proc.stdout, 5, 20.0)
        proc.send_signal(getattr(signal, signum))
        rest, err = proc.communicate(timeout=30)
        assert proc.returncode == status
        rows = out.read_text().splitlines()
        assert len(rows) == 6 and rows[1:] == echoed + rest.decode().splitlines()
        assert err.decode() == (f"5 bearings written to {out} (0 rejected by rssi floor, "
                                "0 by mac filter, 0 undecodable)\n")


class TestClosedPipe:
    """A consumer that stops reading, as `| head -1` does, ends the run with
    SIGPIPE's status 141: the summary line, and no error line, traceback or
    failed flush at interpreter exit."""

    @staticmethod
    def assert_quiet_end(proc: subprocess.Popen) -> str:
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 141
        for text in ("error:", "Traceback", "Exception ignored"):
            assert text not in err
        return err

    def test_decode_to_a_closed_pipe(self, tmp_path):
        # 3000 rows outgrow the pipe's buffer, so a write meets the closed pipe
        frame = synth_frame([PathComponent(aoa=0.3)], ArrayGeometry.square(0.02),
                            ChannelSpec(36, 20))
        capture = tmp_path / "long.wcap"
        codec.write_capture(capture, [frame] * 3000)
        proc = subprocess.Popen([sys.executable, "-m", "csisense.cli", "decode", "--capture",
                                 str(capture)],
                                env=_src_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline().startswith(b"timestamp_ns,seq,")
        proc.stdout.close()
        assert self.assert_quiet_end(proc).startswith("decoded ")

    def test_bearing_echo_to_a_closed_pipe(self, tmp_path):
        capture, cal = ula_capture(tmp_path, "y", np.radians([10.0, 20.0, 30.0]))
        wire = [codec.encode_frame(f) for f in read_capture(capture)]
        port = _free_udp_port()
        proc = subprocess.Popen(
            [sys.executable, "-m", "csisense.cli", "bearing", "--udp", str(port),
             "--calibration", str(cal), "--out", str(tmp_path / "live.csv"), "--timeout", "60",
             "--rssi-floor", "-200"],
            env=_src_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            _send_to_listener(port, wire[:1])
            assert len(_read_lines(proc.stdout, 1, 20.0)) == 1
            proc.stdout.close()
            # the next echo meets the closed pipe
            _send_to_listener(port, wire[1:])
            self.assert_quiet_end(proc)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)


class TestProfileOracle:
    def test_brightest_pixel_at_true_cell(self, tmp_path):
        # bias-free single-path capture: the profile's brightest pixel
        # must land on the true (bearing, distance) cell
        import csisense as cs
        from csisense.codec import write_capture

        chan = cs.ChannelSpec(155, 80)
        geom = cs.ArrayGeometry.square(0.45 * cs.wavelength(chan))
        theta, tau = np.radians(-40.0), 24e-9
        frame = cs.synth_frame([cs.PathComponent(aoa=theta, delay_s=tau)],
                               geom, chan)
        cap = tmp_path / "one.wcap"
        write_capture(cap, [frame])
        out = tmp_path / "p.pgm"
        geometry = "; ".join(f"{x},{y}" for x, y in geom.positions)
        assert main(["profile", "--capture", str(cap), "--index", "0",
                     "--geometry", geometry, "--out", str(out)]) == 0
        image, theta_grid, dist_grid, _ = read_profile_pgm(out)
        ti, di = np.unravel_index(np.argmax(image), image.shape)
        assert abs(wrap_angle(theta_grid[ti] - theta)) <= np.radians(1.0)
        assert abs(dist_grid[di] - 299792458.0 * tau) <= 0.25


# Runs each argv of the JSON list in sys.argv[1] through `main`, in order,
# the k-th call's stdout and stderr into k.out and k.err; prints the exit codes.
RERUN_DRIVER = """
import contextlib, json, sys
from csisense.cli import main

codes = []
for k, argv in enumerate(json.loads(sys.argv[1])):
    with open(f"{k}.out", "w") as out, open(f"{k}.err", "w") as err, \\
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        codes.append(main(argv))
print(json.dumps(codes))
"""


class TestFreshInterpreterRerun:
    def test_every_subcommand_writes_the_same_bytes(self, tmp_path):
        """Criterion 8d across processes: two fresh interpreters, each with its
        own hash seed, run every subcommand and write the same files, stdout
        and stderr, byte for byte."""
        # a y-axis ULA survey of 150 frames (five ingest blocks), and for
        # `scan` the same walk past SCAN_SCENARIO's access points
        survey = CALIB_SCENARIO.replace("n = 80", "n = 150").replace(
            "layout = square\nspacing_m = 0.02336",
            "layout = linear-y\ncount = 4\nspacing_m = 0.025")
        # the simulated source and three MACs no frame carries: a set that
        # the two hash seeds iterate in different orders
        macs = ",".join(f"02:00:00:00:00:{last}" for last in ("01", "97", "98", "99"))
        filters = ["--mac-filter", macs, "--rssi-floor", "-42.5"]
        bearing = ["bearing", "--capture", "long.wcap", "--calibration", "long.cal"]
        calls = [
            ["simulate", "--scenario", "long.ini", "--capture", "long.wcap", "--poses", "long.csv"],
            ["decode", "--capture", "long.wcap", *filters, "--csv", "frames.csv"],
            ["calibrate", "--capture", "long.wcap", "--poses", "long.csv", "--tx", "0,0",
             "--geometry", "0,0; 0,0.025; 0,0.05; 0,0.075", "--out", "long.cal"],
            [*bearing, "--out", "bartlett.csv", "--algorithm", "bartlett", "--window", "8"],
            [*bearing, "--out", "music.csv", "--algorithm", "music", *filters],
            ["profile", "--capture", "long.wcap", "--index", "2", "--calibration", "long.cal",
             "--out", "profile.pgm"],
            ["scan", "--scenario", "walk.ini", "--out", "walk.csv"],
        ]
        runs = []
        for hash_seed in ("0", "1"):
            work = tmp_path / f"hash-seed-{hash_seed}"
            work.mkdir()
            (work / "long.ini").write_text(survey)
            (work / "walk.ini").write_text(survey + "[ap." + SCAN_SCENARIO.partition("[ap.")[2])
            proc = subprocess.run([sys.executable, "-c", RERUN_DRIVER, json.dumps(calls)],
                                  cwd=work, env=_src_env(PYTHONHASHSEED=hash_seed),
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout) == [0] * len(calls)
            runs.append({path.name: path.read_bytes() for path in work.iterdir()})
        first, second = runs
        assert sorted(first) == sorted(second)
        assert [name for name in sorted(first) if first[name] != second[name]] == []
        # the filters keep the same frames for `decode` and `bearing`, not all
        kept = len(first["frames.csv"].splitlines()) - 1
        assert 40 <= kept < 150 and len(first["music.csv"].splitlines()) == 1 + kept
        assert first["1.err"].decode() == (f"decoded {kept} frames (dropped: 0 decode, 0 mac, "
                                           f"{150 - kept} rssi)\n")
        assert first["4.err"].decode() == (f"{kept} bearings written to music.csv ({150 - kept} "
                                           "rejected by rssi floor, 0 by mac filter, "
                                           "0 undecodable)\n")
        assert len(first["bartlett.csv"].splitlines()) == 151


def _src_env(**overrides: str) -> dict[str, str]:
    """This process's environment, with the package's sources first on PYTHONPATH."""
    path = os.pathsep.join([str(SRC)] + ([os.environ["PYTHONPATH"]]
                                         if os.environ.get("PYTHONPATH") else []))
    return dict(os.environ, PYTHONPATH=path, **overrides)


def _assert_radius_rejected(tmp_path, command: str, radius_m: str) -> None:
    """The CLI exits 2 naming radius_m; a subprocess with a timeout turns a hang into a failure."""
    argv = _trajectory_argv(tmp_path, command, radius_m=radius_m)
    proc = subprocess.run([sys.executable, "-m", "csisense.cli", *argv], env=_src_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: data: [trajectory] radius_m ")
    assert "Traceback" not in proc.stderr


def _trajectory_argv(tmp_path, command: str, **overrides: str) -> list[str]:
    """`simulate` or `scan` argv on a disc trajectory, some [trajectory] keys overridden.

    Another `kind` starts from no keys, as the disc keys are foreign to it.
    """
    disc = {"kind": "disc", "n": "80", "radius_m": "5.0", "rate_hz": "1.0"}
    keys = {**(disc if overrides.get("kind", "disc") == "disc" else {}), **overrides}
    trajectory = "[trajectory]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
    scenario = tmp_path / "traj.ini"
    if command == "simulate":
        scenario.write_text(CALIB_SCENARIO.split("[trajectory]")[0] + trajectory)
        return ["simulate", "--scenario", str(scenario), "--capture", str(tmp_path / "c.wcap"),
                "--poses", str(tmp_path / "p.csv")]
    head, _, aps = SCAN_SCENARIO.partition("[ap.")
    scenario.write_text(head.split("[trajectory]")[0] + trajectory + "[ap." + aps)
    return ["scan", "--scenario", str(scenario), "--out", str(tmp_path / "w.csv")]


class TestScanPolicyConfig:
    def test_setup_section_overrides_policy(self, tmp_path, capsys):
        scenario = tmp_path / "scan.ini"
        scenario.write_text(SCAN_SCENARIO)
        config = tmp_path / "cfg.ini"
        config.write_text("[setup]\nscan_period_s = 10\nswitch_margin_db = 3\n")
        out = tmp_path / "walk.csv"
        assert main(["scan", "--scenario", str(scenario), "--out", str(out),
                     "--config", str(config)]) == 0
        base = tmp_path / "walk_default.csv"
        assert main(["scan", "--scenario", str(scenario), "--out", str(base)]) == 0
        # a faster scan period and smaller margin change the behavior
        assert out.read_text() != base.read_text()

    def test_empty_setup_section_gives_default_policy(self, tmp_path):
        config = tmp_path / "cfg.ini"
        config.write_text("[setup]\n")
        assert load_config(config).scan_policy == ScanPolicy()

    @pytest.mark.parametrize("key,text,value", [
        ("scan_period_s", "10", 10.0),
        ("dwell_ms", "50", 50),
        ("switch_margin_db", "3", 3.0),
        ("switch_cost_ms", "200", 200),
        ("stale_timeout_s", "60", 60.0),
    ])
    def test_one_key_changes_only_its_field(self, tmp_path, key, text, value):
        config = tmp_path / "cfg.ini"
        config.write_text(f"[setup]\n{key} = {text}\n")
        policy = load_config(config).scan_policy
        assert policy == dataclasses.replace(ScanPolicy(), **{key: value})
        assert type(getattr(policy, key)) is type(value)


class TestAlgorithmConfig:
    def test_default_is_aoa_configs_default(self):
        cli_cfg, ref = RunConfig().aoa_config(), AoaConfig()
        assert np.array_equal(cli_cfg.theta_grid, ref.theta_grid)
        assert np.array_equal(cli_cfg.dist_grid, ref.dist_grid)
        assert (cli_cfg.theta_grid.size, cli_cfg.dist_grid.size) == (360, 121)
        for name in ("algorithm", "smoothing", "window", "n_sources"):
            assert getattr(cli_cfg, name) == getattr(ref, name)

    def test_one_grid_key_changes_only_its_grid(self, tmp_path):
        config = tmp_path / "cfg.ini"
        config.write_text("[algorithm]\ntheta_step_deg = 2\n")
        cfg = load_config(config).aoa_config()
        assert np.array_equal(cfg.theta_grid, build_grids(theta_step_deg=2.0)[0])
        assert cfg.theta_grid.size == 180
        assert np.array_equal(cfg.dist_grid, AoaConfig().dist_grid)
