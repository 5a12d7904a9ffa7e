import numpy as np
import pytest

from csisense import apply_calibration, codec, load_calibration, read_capture, wrap_angle
from csisense.aoa import (
    AoaConfig,
    estimate_bearing,
    music_spectrum,
    read_profile_pgm,
    write_bearings_csv,
)
from csisense.cli import main
from csisense.scenario import read_poses_csv

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
        assert main(["decode", "--capture", str(cut), "--csv", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: data:" in err
        assert len(out.read_text().splitlines()) == 80  # header + 79 frames

    def test_capture_decoded_once(self, workspace, monkeypatch):
        tmp_path, scenario = workspace
        capture, _, cal, _ = run_pipeline(tmp_path, scenario)
        n_frames = len(read_capture(capture))
        calls = {"decode": 0, "encode": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(codec, "decode_frame", counted("decode", codec.decode_frame))
        monkeypatch.setattr(codec, "encode_frame", counted("encode", codec.encode_frame))
        for argv in (["decode", "--capture", str(capture), "--csv", str(tmp_path / "f.csv")],
                     ["bearing", "--capture", str(capture), "--calibration", str(cal),
                      "--out", str(tmp_path / "b.csv")]):
            calls.update(decode=0, encode=0)
            assert main(argv) == 0
            assert calls == {"decode": n_frames, "encode": 0}

    def test_rssi_floor_filters(self, workspace, capsys):
        tmp_path, scenario = workspace
        capture, *_ = run_pipeline(tmp_path, scenario)
        out = tmp_path / "frames.csv"
        assert main(["decode", "--capture", str(capture), "--csv", str(out),
                     "--rssi-floor", "-41"]) == 0
        rows = out.read_text().splitlines()[1:]
        assert all(float(r.rsplit(",", 1)[1]) >= -41 for r in rows)


class TestErrors:
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

    @pytest.mark.parametrize("section,line", [
        ("algorithm", "window = abc"),
        ("algorithm", "smoothing = 2"),
        ("packet", "rssi_floor_dbm = low"),
        ("packet", "rssi_floor_dbm = nan"),
        ("setup", "dwell_ms = x"),
        ("algorithm", "theta_step_deg = 0"),
        ("algorithm", "dist_step_m = 0"),
    ])
    def test_malformed_config_value_exit_2(self, tmp_path, capsys, section, line):
        from csisense import ArrayGeometry, CalibrationMatrix, ChannelSpec, save_calibration

        chan = ChannelSpec(155, 80)
        cal = tmp_path / "cal.txt"
        save_calibration(cal, CalibrationMatrix(np.zeros((4, chan.n_sub)), chan),
                         ArrayGeometry.square(0.02336))
        capture = tmp_path / "empty.wcap"
        codec.write_capture(capture, [])
        config = tmp_path / "bad.ini"
        config.write_text(f"[{section}]\n{line}\n")
        code = main(["bearing", "--capture", str(capture), "--calibration", str(cal),
                     "--out", str(tmp_path / "b.csv"), "--config", str(config)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: data:")

    def test_malformed_config_value_names_file_section_and_key(self, tmp_path, capsys):
        config = tmp_path / "bad.ini"
        config.write_text("[packet]\nrssi_floor_dbm = low\n")
        code = main(["decode", "--capture", str(tmp_path / "none.wcap"),
                     "--config", str(config)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: data:")
        assert "rssi_floor_dbm" in err and "[packet]" in err and str(config) in err

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
        reference = tmp_path / "expected.csv"
        write_bearings_csv(reference, expected)
        assert out.read_text() == reference.read_text()

    def test_spotfi_window_rejected(self, workspace, capsys):
        tmp_path, scenario = workspace
        capture, _, cal, _ = run_pipeline(tmp_path, scenario)
        capsys.readouterr()
        assert main(["bearing", "--capture", str(capture), "--calibration", str(cal),
                     "--out", str(tmp_path / "s.csv"), "--algorithm", "spotfi",
                     "--window", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and "window" in err

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


class TestUdpDecode:
    def test_decode_from_udp_stream(self, tmp_path, capsys):
        import socket
        import threading
        import time

        from csisense import ChannelSpec, CsiFrame
        from csisense.codec import encode_frame

        rng = np.random.default_rng(77)
        chanspec = ChannelSpec(36, 20)
        frames = []
        for k in range(3):
            csi = (rng.standard_normal((2, 1, 52))
                   + 1j * rng.standard_normal((2, 1, 52))).astype(np.complex64)
            frames.append(CsiFrame(csi=csi, rssi_dbm=-40.0, source_mac=bytes(6),
                                   seq=k, chanspec=chanspec, timestamp_ns=k))
        port = 56991
        out = tmp_path / "udp.csv"
        result = {}

        def run_cli():
            result["code"] = main(["decode", "--udp", str(port), "--count", "3",
                                   "--timeout", "5", "--csv", str(out)])

        thread = threading.Thread(target=run_cli)
        thread.start()
        time.sleep(0.3)
        sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        for f in frames:
            sender.sendto(encode_frame(f), ("127.0.0.1", port))
        sender.close()
        thread.join(timeout=10.0)
        assert result["code"] == 0
        assert len(out.read_text().splitlines()) == 4


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
