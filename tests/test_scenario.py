import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from csisense import (
    ArrayGeometry,
    CalibrationMatrix,
    ChannelSpec,
    ConfigurationError,
    CsiSenseError,
    Pose2D,
    Reflection,
    SimScenario,
    synth_trajectory,
)
from csisense import cli, scenario
from csisense.calibration import load_calibration, save_calibration
from csisense.cli import load_config
from csisense.codec import write_capture
from csisense.core import MAX_COORDINATE_M
from csisense.scenario import (
    disc_trajectory,
    line_trajectory,
    load_scenario,
    loop_trajectory,
    random_bias,
    read_poses_csv,
    write_poses_csv,
)
from csisense.synth import DEFAULT_PATH_LOSS_EXPONENT, REFERENCE_RSSI_DBM

SCENARIO = """
[channel]
channel = 155
bandwidth = 80

[transmitter]
x = 1.0
y = -2.0
power_dbm = -35

[array]
layout = square
spacing = half-wavelength

[simulation]
seed = 9
snr_db = 25
per_packet_phase = true
bias = random

[trajectory]
kind = disc
n = 60
radius_m = 4.0
rate_hz = 2.0

[reflection.1]
aoa_offset_deg = 30
excess_delay_ns = 12
rel_amplitude = 0.5
random_phase = true

[ap.1]
x = 5
y = 5
channel = 42
bandwidth = 80
power_dbm = -30
"""


class TestLoadScenario:
    def test_full_scenario(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(SCENARIO)
        scenario, geom = load_scenario(path)
        assert scenario.chanspec == ChannelSpec(155, 80)
        assert np.allclose(scenario.tx_location, [1.0, -2.0])
        assert scenario.snr_db == 25.0
        assert scenario.per_packet_phase is True
        assert scenario.true_calibration is not None
        assert len(scenario.trajectory) == 60
        assert len(scenario.reflections) == 1
        assert len(scenario.aps) == 1
        assert geom.n_antennas == 4
        # timestamps at 2 Hz
        assert scenario.trajectory[1][0] - scenario.trajectory[0][0] == 500_000_000

    def test_keys_left_out_take_their_owners_defaults(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text("\n".join(line for line in SCENARIO.splitlines()
                                  if line.split(" =")[0] not in {
                                      "power_dbm", "snr_db", "per_packet_phase",
                                      "random_phase"}))
        scenario, _ = load_scenario(path)
        assert scenario.snr_db == SimScenario.snr_db == 30.0
        assert scenario.per_packet_phase is SimScenario.per_packet_phase is True
        assert scenario.tx_power_dbm == REFERENCE_RSSI_DBM
        assert scenario.path_loss_exponent == DEFAULT_PATH_LOSS_EXPONENT
        refl = scenario.reflections[0]
        assert refl.random_phase is Reflection(0.0, 0.0, 1.0).random_phase is True

    def test_false_booleans_reach_the_capture(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(SCENARIO.replace("per_packet_phase = true", "per_packet_phase = false")
                        .replace("random_phase = true", "random_phase = false"))
        scenario, geom = load_scenario(path)
        assert scenario.per_packet_phase is False
        assert scenario.reflections[0].random_phase is False
        capture = tmp_path / "s.wcap"
        assert cli.main(["simulate", "--scenario", str(path), "--capture", str(capture),
                         "--poses", str(tmp_path / "s.csv")]) == 0
        path.write_text(SCENARIO)
        by_hand, _ = load_scenario(path)
        by_hand = dataclasses.replace(
            by_hand, per_packet_phase=False,
            reflections=[dataclasses.replace(r, random_phase=False) for r in by_hand.reflections])
        write_capture(tmp_path / "by_hand.wcap", (f for _, f in synth_trajectory(by_hand, geom)))
        assert capture.read_bytes() == (tmp_path / "by_hand.wcap").read_bytes()

    def test_missing_file_refused(self, tmp_path):
        path = tmp_path / "absent.ini"
        message = f"^cannot read scenario file {re.escape(str(path))}$"
        with pytest.raises(ConfigurationError, match=message):
            load_scenario(path)

    def test_trajectory_keys_of_another_kind_rejected(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(SCENARIO.replace("radius_m = 4.0", "radius_m = 4.0\nlaps = 3"))
        with pytest.raises(ConfigurationError,
                           match=r"unknown keys \['laps'\] in \[trajectory\] .* kind = disc"):
            load_scenario(path)

    @pytest.mark.parametrize("array,unread", [
        ("layout = square\ncount = 8\nspacing = half-wavelength", "['count']"),
        ("layout = linear-x\ncount = 4\nspacing_m = 0.02\nspacing = half-wavelength",
         "['spacing']"),
        ("antennas = 0,0; 0.01,0; 0.02,0\nlayout = linear-x\ncount = 3\n"
         "spacing = half-wavelength", "['count', 'layout', 'spacing']"),
    ], ids=["count-under-square", "spacing-beside-spacing_m", "layout-beside-antennas"])
    def test_array_keys_its_form_does_not_read_rejected(self, tmp_path, array, unread):
        # `count` is read only by the linear layouts, `spacing` only without
        # `spacing_m`, and the layout keys only without `antennas`
        path = tmp_path / "s.ini"
        path.write_text(SCENARIO.replace("layout = square\nspacing = half-wavelength", array))
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"unknown keys {unread} in [array] of {path}")):
            load_scenario(path)

    def test_seed_override(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(SCENARIO)
        a, _ = load_scenario(path, seed=123)
        b, _ = load_scenario(path, seed=123)
        c, _ = load_scenario(path)
        assert a.seed == b.seed == 123 and c.seed == 9
        assert a.trajectory == b.trajectory
        assert a.trajectory != c.trajectory

    @pytest.mark.parametrize("old,new,key", [
        ("snr_db = 25", "snr_db = nan", "snr_db"),
        ("snr_db = 25", "snr_db = -inf", "snr_db"),
        ("power_dbm = -30", "power_dbm = nan", "power_dbm"),
        ("x = 1.0", "x = inf", "x"),
        ("rel_amplitude = 0.5", "rel_amplitude = nan", "rel_amplitude"),
        ("spacing = half-wavelength", "spacing = inf", "spacing"),
    ])
    def test_non_finite_value_rejected(self, tmp_path, old, new, key):
        path = tmp_path / "bad.ini"
        path.write_text(SCENARIO.replace(old, new))
        with pytest.raises(ConfigurationError, match=rf"^\[.*\] {key} must be a finite number, got "):
            load_scenario(path)

    @pytest.mark.parametrize("keyword", ["none", "inf", "off", "INF"])
    def test_snr_keywords_turn_noise_off(self, tmp_path, keyword):
        path = tmp_path / "quiet.ini"
        path.write_text(SCENARIO.replace("snr_db = 25", f"snr_db = {keyword}"))
        assert load_scenario(path)[0].snr_db is None

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(SCENARIO.replace("radius_m = 4.0", "radius_typo = 4.0"))
        with pytest.raises(ConfigurationError):
            load_scenario(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(SCENARIO + "\n[mystery]\nkey = 1\n")
        with pytest.raises(ConfigurationError):
            load_scenario(path)

    def test_missing_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[channel]\nchannel = 155\nbandwidth = 80\n")
        with pytest.raises(ConfigurationError):
            load_scenario(path)

    @pytest.mark.parametrize("array,key", [
        ("layout = linear-y\ncount = 5\nspacing = half-wavelength", "count"),
        ("antennas = 0,0; 0.01,0; 0.02,0; 0.03,0; 0.04,0", "antennas"),
    ], ids=["count", "antennas"])
    def test_more_antennas_than_a_frame_carries_rejected(self, tmp_path, array, key):
        path = tmp_path / "s.ini"
        path.write_text(SCENARIO.replace("layout = square\nspacing = half-wavelength", array))
        with pytest.raises(ConfigurationError, match=re.escape(
                f"for {key} in [array] of {path}: 5 antennas; a frame carries at most 4")):
            load_scenario(path)

    @pytest.mark.parametrize("count", ["-1", "0"])
    def test_count_below_one_names_the_key(self, tmp_path, count):
        path = tmp_path / "s.ini"
        path.write_text(SCENARIO.replace("layout = square\nspacing = half-wavelength",
                                         f"layout = linear-y\ncount = {count}\n"
                                         "spacing = half-wavelength"))
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"bad value '{count}' for count in [array] of {path}")):
            load_scenario(path)

    def test_explicit_antenna_positions(self, tmp_path):
        text = SCENARIO.replace(
            "layout = square\nspacing = half-wavelength",
            "antennas = 0,0; 0.01,0; 0.02,0",
        )
        path = tmp_path / "s.ini"
        path.write_text(text)
        _, geom = load_scenario(path)
        assert geom.n_antennas == 3
        assert np.allclose(geom.positions[1], [0.01, 0.0])


def refused_by_parser(path, text, fragment: str) -> None:
    """load_scenario of text raises one ConfigurationError line naming path and fragment."""
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(ConfigurationError) as info:
        load_scenario(path)
    message = str(info.value)
    assert str(path) in message and fragment in message and "\n" not in message


class TestIniParserFaults:
    """A file `configparser` refuses fails as ConfigurationError, never as the parser's own error."""

    def test_duplicate_option(self, tmp_path):
        refused_by_parser(tmp_path / "s.ini", SCENARIO.replace("n = 60", "n = 60\nn = 61"),
                          "option 'n' in section 'trajectory' already exists")

    def test_duplicate_section(self, tmp_path):
        refused_by_parser(tmp_path / "s.ini", SCENARIO + "\n[channel]\nchannel = 36\n",
                          "section 'channel' already exists")

    def test_missing_section_header(self, tmp_path):
        refused_by_parser(tmp_path / "s.ini", "channel = 155\n" + SCENARIO,
                          "no section headers")

    def test_parse_error(self, tmp_path):
        refused_by_parser(tmp_path / "s.ini", SCENARIO.replace("n = 60", "n = 60\nn 61"),
                          "parsing errors")

    def test_not_decodable(self, tmp_path):
        refused_by_parser(tmp_path / "s.ini", b"\xff\xfe" + SCENARIO.encode(), "decode")

    def test_interpolation_syntax_is_a_bad_value(self, tmp_path):
        refused_by_parser(tmp_path / "s.ini",
                          SCENARIO.replace("seed = 9", "seed = 3 %(x)s"),
                          "bad value '3 %(x)s' for seed in [simulation]")

    def test_percent_is_literal(self, tmp_path):
        poses = tmp_path / "100%(x)s.csv"
        write_poses_csv(poses, disc_trajectory(np.zeros(2), 3.0, 5, seed=1))
        path = tmp_path / "s.ini"
        path.write_text(SCENARIO.replace("kind = disc\nn = 60\nradius_m = 4.0\nrate_hz = 2.0",
                                         f"kind = file\nfile = {poses}"))
        assert len(load_scenario(path)[0].trajectory) == 5


def test_negative_seed_refused_in_file_and_override(tmp_path):
    # numpy's generators take no negative seed; its ValueError must not escape
    refused_by_parser(tmp_path / "s.ini", SCENARIO.replace("seed = 9", "seed = -1"),
                      "bad value '-1' for seed in [simulation]")
    (tmp_path / "s.ini").write_text(SCENARIO)
    with pytest.raises(ConfigurationError, match="seed must be a non-negative integer"):
        load_scenario(tmp_path / "s.ini", seed=-1)


CONFIG = """
[packet]
mac_filter = 02:00:00:00:00:01
rssi_floor_dbm = -65

[algorithm]
algorithm = music
window = 4
theta_step_deg = 2
smoothing = 2,30

[setup]
scan_period_s = 30
switch_margin_db = 6
"""

# Lines the fuzz inserts, and values it swaps in.  No value exceeds the
# scenario's own n, so no mutant asks for a long trajectory.
_FUZZ_LINES = ["[array]", "[extra]", "[DEFAULT]", "[packet", "count = 3", "n 5",
               "  continued", "x = %(y)s", "= 1", "window = 2", "seed = 3 %(x)s", "%",
               "[reflection.2]", "rel_amplitude = 1e300", "excess_delay_ns = 1e300",
               "aoa_offset_deg = 1e300"]
_FUZZ_VALUES = ["0", "1", "-1", "2.5", "40", "1e308", "abc", "", "nan", "-inf", "%", "%(x)s",
                "half-wavelength", "square", "linear-x", "file", "loop", "line", "random",
                "true", "none", "0,0; 0.02,0", "02:00:00:00:00:01", "3,5",
                "1e300", "-1e300", "-50", "-361", "10000.5", "0.7"]


def _mutant(lines: list[str], rng) -> str:
    lines = list(lines)
    for _ in range(int(rng.integers(1, 4))):
        k = int(rng.integers(len(lines)))
        op = int(rng.integers(4))
        if op == 0:
            del lines[k]
        elif op == 1:
            lines.insert(k, lines[k])
        elif op == 2:
            lines.insert(k, _FUZZ_LINES[int(rng.integers(len(_FUZZ_LINES)))])
        elif "=" in lines[k]:
            key = lines[k].partition("=")[0]
            lines[k] = f"{key}= {_FUZZ_VALUES[int(rng.integers(len(_FUZZ_VALUES)))]}"
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("load,text", [(load_scenario, SCENARIO), (load_config, CONFIG)],
                         ids=["scenario", "config"])
def test_loader_fuzz_raises_only_csisense_or_os_errors(tmp_path, load, text):
    # deleted, repeated and inserted lines, and swapped values: each load
    # either succeeds or fails the way the CLI turns into exit 2
    rng = np.random.default_rng(1602)
    lines = text.strip().splitlines()
    path = tmp_path / "mutant.ini"
    for _ in range(800):
        path.write_text(_mutant(lines, rng))
        try:
            load(path)
        except (CsiSenseError, OSError):
            pass


# Values the text-loader fuzz swaps in: one per way a number can be bad.
_TEXT_FUZZ_VALUES = ["nan", "inf", "1e308", "", "abc"]


def _text_mutant(lines: list[str], rng) -> bytes:
    """Lines deleted, repeated, inserted or given a pool value, then 0xff inserted or a cut."""
    lines = list(lines)
    for _ in range(int(rng.integers(1, 4))):
        k = int(rng.integers(len(lines)))
        value = _TEXT_FUZZ_VALUES[int(rng.integers(len(_TEXT_FUZZ_VALUES)))]
        op = int(rng.integers(4))
        if op == 0 and len(lines) > 1:
            del lines[k]
        elif op == 1:
            lines.insert(k, lines[k])
        elif op == 2:
            lines.insert(k, value)
        elif op == 3:  # one comma-separated field of the line, after any "key ="
            head, sep, tail = lines[k].rpartition("=")
            fields = tail.split(",")
            fields[int(rng.integers(len(fields)))] = value
            lines[k] = head + sep + ",".join(fields)
    data = ("\n".join(lines) + "\n").encode()
    cut = int(rng.integers(len(data) + 1))
    op = int(rng.integers(3))
    if op == 0:
        data = data[:cut] + b"\xff" + data[cut:]
    elif op == 1:
        data = data[:cut]
    return data


def _calibration_text(path) -> str:
    chan = ChannelSpec(36, 20)
    rng = np.random.default_rng(5)
    save_calibration(path, CalibrationMatrix(rng.uniform(-3, 3, (3, chan.n_sub)), chan),
                     ArrayGeometry(np.array([[0.0, 0.0], [0.03, 0.0], [0.0, 0.03]])))
    return path.read_text()


def _pose_text(path) -> str:
    write_poses_csv(path, disc_trajectory(np.zeros(2), 3.0, 12, seed=4))
    return path.read_text()


@pytest.mark.parametrize("load,write", [(load_calibration, _calibration_text),
                                        (read_poses_csv, _pose_text)],
                         ids=["calibration", "poses"])
def test_text_loader_fuzz_raises_only_csisense_or_os_errors(tmp_path, load, write):
    # each load either succeeds or fails the way the CLI turns into exit 2;
    # tier-1 also fails on a RuntimeWarning, such as an overflow on the way
    rng = np.random.default_rng(1703)
    path = tmp_path / "mutant.txt"
    lines = write(path).splitlines()
    for _ in range(3000):
        path.write_bytes(_text_mutant(lines, rng))
        try:
            load(path)
        except (CsiSenseError, OSError):
            pass


class TestTrajectories:
    def test_disc_stays_inside_radius(self):
        traj = disc_trajectory(np.array([2.0, 3.0]), 5.0, 200, seed=1)
        assert len(traj) == 200
        for _, pose in traj:
            d = np.hypot(pose.x - 2.0, pose.y - 3.0)
            assert 0.5 <= d <= 5.0

    def test_disc_deterministic_by_seed(self):
        a = disc_trajectory(np.zeros(2), 5.0, 50, seed=7)
        b = disc_trajectory(np.zeros(2), 5.0, 50, seed=7)
        assert a == b

    def test_disc_radius_floor_is_one_meter(self):
        # at 1 m a draw clears the 0.5 m keep-out with probability 0.75
        traj = disc_trajectory(np.zeros(2), 1.0, 200, seed=3)
        assert all(0.5 <= np.hypot(p.x, p.y) <= 1.0 for _, p in traj)
        for radius in (0.999, 0.5000001, np.inf, np.nan):
            with pytest.raises(ConfigurationError, match=r"^\[trajectory\] radius_m "):
                disc_trajectory(np.zeros(2), radius, 200, seed=3)

    def test_loop_returns_to_start(self):
        traj = loop_trajectory(0.0, 0.0, 10.0, 4.0, laps=1, n=280)
        xs = [p.x for _, p in traj]
        ys = [p.y for _, p in traj]
        assert min(xs) >= -1e-9 and max(xs) <= 10.0 + 1e-9
        assert min(ys) >= -1e-9 and max(ys) <= 4.0 + 1e-9

    @pytest.mark.parametrize("length,width,refused", [
        (0.0, 0.0, "length_m and width_m must not both be 0"),
        (-5.0, 5.0, "length_m must not be negative"),
        (-10.0, 2.0, "length_m must not be negative"),
        (10.0, -2.0, "width_m must not be negative"),
    ])
    def test_loop_refuses_a_negative_side_or_zero_perimeter(self, length, width, refused):
        with pytest.raises(ConfigurationError, match=rf"^\[trajectory\] {refused}"):
            loop_trajectory(0.0, 0.0, length, width, laps=1, n=3)
        # a zero width with a positive length is a segment run back and forth
        traj = loop_trajectory(0.0, 0.0, 10.0, 0.0, laps=1, n=20)
        assert all(0.0 <= p.x <= 10.0 and p.y == 0.0 for _, p in traj)

    def test_line_endpoints(self):
        traj = line_trajectory(0.0, 0.0, 3.0, 4.0, n=5)
        assert traj[0][1].x == pytest.approx(0.0)
        assert traj[-1][1].x == pytest.approx(3.0)
        assert traj[-1][1].y == pytest.approx(4.0)


    @pytest.mark.parametrize("build", [
        lambda: disc_trajectory(np.array([0.0, 1e308]), 5.0, 3, seed=1),
        lambda: disc_trajectory(np.zeros(2), 1e308, 3, seed=1),
        lambda: disc_trajectory(np.array([MAX_COORDINATE_M, 0.0]), 1.0, 3, seed=1),
        lambda: loop_trajectory(0.0, 0.0, 1e308, 4.0, laps=1, n=3),
        lambda: loop_trajectory(-1e308, 0.0, 1e308, 4.0, laps=1, n=3),
        lambda: line_trajectory(0.0, 0.0, 3.0, -1e308, n=3),
        lambda: line_trajectory(0.0, 0.0, 3.0, np.nan, n=3),
    ])
    def test_coordinates_bounded(self, build):
        with pytest.raises(ConfigurationError, match=r"^\[trajectory\] poses would reach "):
            build()

    def test_coordinate_bound_inclusive(self):
        m = MAX_COORDINATE_M
        traj = line_trajectory(-m, m, m, -m, n=3)
        assert (traj[0][1].x, traj[-1][1].y) == (-m, -m)
        assert len(disc_trajectory(np.array([m - 1.0, 1.0 - m]), 1.0, 3, seed=1)) == 3
        assert len(loop_trajectory(-m, -m, 2.0 * m, 2.0 * m, laps=1, n=3)) == 3

    @pytest.mark.parametrize("build", [
        lambda n: disc_trajectory(np.zeros(2), 5.0, n, seed=1),
        lambda n: loop_trajectory(0.0, 0.0, 10.0, 4.0, laps=1, n=n),
        lambda n: line_trajectory(0.0, 0.0, 3.0, 4.0, n=n),
    ], ids=["disc", "loop", "line"])
    def test_pose_count_bounded_before_any_pose_is_made(self, build):
        n = scenario.MAX_POSES + 1
        tracemalloc.start()
        try:
            with pytest.raises(ConfigurationError, match=rf"^\[trajectory\] n must be 1 to "
                                                         rf"{n - 1}, got {n}$"):
                build(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    @pytest.mark.parametrize("laps", [10**330, -10**330, 1_000_001, -1_000_001],
                             ids=["10**330", "-10**330", "1000001", "-1000001"])
    def test_loop_laps_bounded(self, laps):
        with pytest.raises(ConfigurationError, match=r"^\[trajectory\] laps must lie in "):
            loop_trajectory(0.0, 0.0, 10.0, 4.0, laps=laps, n=3)
        assert len(loop_trajectory(0.0, 0.0, 10.0, 4.0, laps=scenario.MAX_POSES, n=3)) == 3


class TestPoseCsv:
    def test_round_trip(self, tmp_path):
        traj = disc_trajectory(np.zeros(2), 5.0, 20, seed=3)
        path = tmp_path / "poses.csv"
        write_poses_csv(path, traj)
        loaded = read_poses_csv(path)
        assert len(loaded) == 20
        for (ts_a, pa), (ts_b, pb) in zip(traj, loaded):
            assert ts_a == ts_b
            assert pa.x == pytest.approx(pb.x, abs=1e-6)
            assert pa.theta == pytest.approx(pb.theta, abs=1e-6)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,x,y\n1,2,3\n")
        with pytest.raises(ConfigurationError):
            read_poses_csv(path)

    @pytest.mark.parametrize("row", ["0,1e308,1,0", "0,3,-1000000.5,0"])
    def test_far_pose_rejected(self, tmp_path, row):
        path = tmp_path / "poses.csv"
        path.write_text(f"timestamp_ns,x,y,theta\n5,1,2,3\n{row}\n")
        with pytest.raises(ConfigurationError,
                           match=rf"^bad pose on line 3 of {re.escape(str(path))}: .* "
                                 r"\(coordinates are at most 1e\+06 m\)$"):
            read_poses_csv(path)

    def test_pose_bound_inclusive(self, tmp_path):
        path = tmp_path / "poses.csv"
        path.write_text("timestamp_ns,x,y,theta\n5,1000000,-1e6,3\n")
        assert read_poses_csv(path)[0][1] == Pose2D(1e6, -1e6, np.radians(3.0))

    @pytest.mark.parametrize("row", ["0,nan,1,0", "0,3,inf,0", "0,3,1,-inf"])
    def test_non_finite_pose_rejected(self, tmp_path, row):
        path = tmp_path / "poses.csv"
        path.write_text(f"timestamp_ns,x,y,theta\n5,1,2,3\n{row}\n")
        with pytest.raises(ConfigurationError, match="line 3 .*not a finite number"):
            read_poses_csv(path)


class TestRandomBias:
    def test_shape_and_determinism(self, chan80):
        a = random_bias(chan80, 4, seed=5)
        b = random_bias(chan80, 4, seed=5)
        c = random_bias(chan80, 4, seed=6)
        assert a.phase.shape == (4, 234)
        assert np.array_equal(a.phase, b.phase)
        assert not np.array_equal(a.phase, c.phase)
