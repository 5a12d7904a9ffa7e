import re

import numpy as np
import pytest

from csisense import (
    ApSpec,
    ChannelSpec,
    ConfigurationError,
    DegenerateGeometryError,
    FrameValidationError,
    PathComponent,
    Pose2D,
    Reflection,
    SimScenario,
    ground_truth_bearing,
    rssi_at,
    steering_vector,
    subcarrier_frequencies,
    synth_frame,
    synth_trajectory,
    wavelength,
    wrap_angle,
)
from csisense import scenario as scenario_module
from csisense import synth
from csisense.scenario import disc_trajectory, random_bias
from csisense.core import MAX_COORDINATE_M
from csisense.synth import REFERENCE_RSSI_DBM, SPEED_OF_LIGHT
from helpers import expected_csi


class TestSynthFrame:
    def test_single_path_zero_delay_equals_steering(self, square_geom, chan80):
        theta = 0.8
        frame = synth_frame([PathComponent(aoa=theta, delay_s=0.0)], square_geom, chan80)
        sv = steering_vector(theta, square_geom, wavelength(chan80))
        for j in range(frame.n_sub):
            assert np.allclose(frame.csi[:, 0, j], sv, atol=1e-6)

    def test_destructive_interference_gives_zero(self, square_geom, chan80):
        paths = [PathComponent(aoa=0.5, delay_s=0.0, amplitude=1.0),
                 PathComponent(aoa=0.5, delay_s=0.0, amplitude=-1.0)]
        frame = synth_frame(paths, square_geom, chan80)
        assert np.allclose(frame.csi, 0.0)

    def test_deterministic_for_fixed_seed(self, square_geom, chan80):
        paths = [PathComponent(aoa=-1.1, delay_s=20e-9)]
        a = synth_frame(paths, square_geom, chan80, snr_db=10.0, rng_seed=99)
        b = synth_frame(paths, square_geom, chan80, snr_db=10.0, rng_seed=99)
        assert a == b

    def test_empty_path_list_rejected(self, square_geom, chan80):
        with pytest.raises(ConfigurationError):
            synth_frame([], square_geom, chan80)

    def test_noiseless_single_path_unit_modulus(self, square_geom, chan80):
        frame = synth_frame([PathComponent(aoa=0.2, delay_s=15e-9, amplitude=2.0)],
                            square_geom, chan80)
        assert np.allclose(np.abs(frame.csi), 2.0, rtol=1e-6)

    def test_tx_array_adds_departure_phase(self, square_geom, chan80):
        tx_geom = square_geom
        aod = -0.6
        frame = synth_frame([PathComponent(aoa=0.0, aod=aod, delay_s=0.0)],
                            square_geom, chan80, tx_geom=tx_geom)
        assert frame.n_tx == 4
        sv = steering_vector(aod, tx_geom, wavelength(chan80))
        # antenna 0 on the rx side: pure departure steering remains
        assert np.allclose(frame.csi[0, :, 0], sv, atol=1e-6)


class TestRssiAt:
    def test_reference_distance(self):
        assert rssi_at(-30.0, 1.0) == pytest.approx(-30.0)

    def test_ten_meters_default_exponent(self):
        assert rssi_at(-30.0, 10.0) == pytest.approx(-52.0)

    def test_strictly_decreasing(self):
        d = np.linspace(0.5, 40.0, 50)
        values = [rssi_at(-30.0, di) for di in d]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ConfigurationError):
            rssi_at(-30.0, 0.0)


def _scenario(chan80, square_geom, **kw):
    defaults = dict(
        tx_location=np.array([0.0, 0.0]),
        chanspec=chan80,
        trajectory=disc_trajectory(np.array([0.0, 0.0]), 5.0, 60, seed=12),
        true_calibration=None,
        snr_db=None,
        per_packet_phase=False,
        seed=12,
    )
    defaults.update(kw)
    return SimScenario(**defaults)


class TestSynthTrajectory:
    def test_zero_bias_noiseless_matches_expected_up_to_common_phase(
        self, chan80, square_geom
    ):
        scen = _scenario(chan80, square_geom)
        pairs = synth_trajectory(scen, square_geom)
        freqs = subcarrier_frequencies(chan80)
        for pose, frame in pairs[:5]:
            model = expected_csi(pose, scen.tx_location, square_geom, chan80)
            # divide out the expected bearing phase: what is left must be
            # common to all antennas (the per-subcarrier ToF phase)
            ratio = frame.csi[:, 0, :] * np.conj(model)
            assert np.allclose(ratio, ratio[0:1, :], atol=1e-4)

    def test_per_packet_phase_cancels_in_antenna_ratios(self, chan80, square_geom):
        base = _scenario(chan80, square_geom, per_packet_phase=False)
        flipped = _scenario(chan80, square_geom, per_packet_phase=True)
        pairs_off = synth_trajectory(base, square_geom)
        pairs_on = synth_trajectory(flipped, square_geom)
        for (_, f_off), (_, f_on) in zip(pairs_off[:5], pairs_on[:5]):
            r_off = f_off.csi[1:, 0, :] / f_off.csi[0:1, 0, :]
            r_on = f_on.csi[1:, 0, :] / f_on.csi[0:1, 0, :]
            assert np.allclose(r_off, r_on, atol=1e-4)

    def test_determinism(self, chan80, square_geom):
        scen_kwargs = dict(snr_db=20.0, per_packet_phase=True,
                           true_calibration=random_bias(chan80, 4, 5))
        a = synth_trajectory(_scenario(chan80, square_geom, **scen_kwargs), square_geom)
        b = synth_trajectory(_scenario(chan80, square_geom, **scen_kwargs), square_geom)
        assert all(fa == fb for (_, fa), (_, fb) in zip(a, b))

    def test_injected_bias_recoverable_from_noiseless_frame(self, chan80, square_geom):
        # the oracle behind the calibration acceptance tests: divide out
        # the modeled physics and the injected bias phase remains
        truth = random_bias(chan80, 4, seed=21)
        scen = _scenario(chan80, square_geom, true_calibration=truth)
        pairs = synth_trajectory(scen, square_geom)
        freqs = subcarrier_frequencies(chan80)
        for pose, frame in pairs[:5]:
            theta = ground_truth_bearing(pose, scen.tx_location)
            d = np.hypot(pose.x, pose.y)
            sv = steering_vector(theta, square_geom, wavelength(chan80))
            tof = np.exp(-2j * np.pi * freqs * d / 299792458.0)
            physics = sv[:, None] * tof[None, :]
            residual = np.angle(frame.csi[:, 0, :] * np.conj(physics))
            err = np.angle(np.exp(1j * (residual - truth.phase)))
            assert np.max(np.abs(err)) < 1e-3

    def test_reflections_add_paths(self, chan80, square_geom):
        refl = Reflection(aoa_offset=0.5, excess_delay_s=10e-9,
                          rel_amplitude=0.5, random_phase=False)
        scen = _scenario(chan80, square_geom, reflections=[refl])
        clean = _scenario(chan80, square_geom)
        a = synth_trajectory(scen, square_geom)
        b = synth_trajectory(clean, square_geom)
        assert not np.allclose(a[0][1].csi, b[0][1].csi)

    def test_rssi_follows_path_loss(self, chan80, square_geom):
        scen = _scenario(chan80, square_geom)
        for pose, frame in synth_trajectory(scen, square_geom)[:10]:
            d = float(np.hypot(pose.x, pose.y))
            assert frame.rssi_dbm == pytest.approx(rssi_at(scen.tx_power_dbm, d), abs=0.05)

    def test_trajectory_timestamps_must_increase(self, chan80, square_geom):
        with pytest.raises(ConfigurationError):
            _scenario(chan80, square_geom,
                      trajectory=[(0, Pose2D(1, 0, 0)), (0, Pose2D(2, 0, 0))])

    @pytest.mark.parametrize("cal,message", [
        (random_bias(ChannelSpec(42, 80), 4, 1),
         "true_calibration chanspec does not match scenario"),
        (random_bias(ChannelSpec(155, 80), 3, 1),
         "true_calibration antenna count does not match geometry"),
    ], ids=["channel", "antennas"])
    def test_true_calibration_must_fit(self, chan80, square_geom, cal, message):
        scen = _scenario(chan80, square_geom, true_calibration=cal)
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            synth_trajectory(scen, square_geom)


def direct_and_reflections(scen, pose, phases):
    """The path list of one pose, built one pose at a time from the scalar functions."""
    theta = ground_truth_bearing(pose, scen.tx_location)
    d = float(np.hypot(pose.x - scen.tx_location[0], pose.y - scen.tx_location[1]))
    amp = 10.0 ** ((rssi_at(scen.tx_power_dbm, d, scen.path_loss_exponent)
                    - REFERENCE_RSSI_DBM) / 20.0)
    paths = [PathComponent(aoa=theta, delay_s=d / SPEED_OF_LIGHT, amplitude=amp)]
    for refl, phase in zip(scen.reflections, phases):
        paths.append(PathComponent(aoa=wrap_angle(theta + refl.aoa_offset),
                                   delay_s=d / SPEED_OF_LIGHT + refl.excess_delay_s,
                                   amplitude=amp * refl.rel_amplitude * np.exp(1j * phase)))
    return paths, amp


REFLECTIONS = [Reflection(aoa_offset=0.5, excess_delay_s=10e-9, rel_amplitude=0.5,
                          random_phase=False),
               Reflection(aoa_offset=-2.0, excess_delay_s=31e-9, rel_amplitude=0.3,
                          random_phase=False)]


class TestBatchedTrajectory:
    """synth_trajectory's array pass equals the pose-by-pose construction bit for bit."""

    def test_noiseless_frames_match_synth_frame(self, chan80, square_geom):
        # 200 poses: numpy treats arrays over 256 KiB differently (temporary elision)
        scen = _scenario(chan80, square_geom, reflections=REFLECTIONS,
                         tx_location=np.array([0.7, -0.4]),
                         trajectory=disc_trajectory(np.array([0.0, 0.0]), 5.0, 200, seed=12))
        pairs = synth_trajectory(scen, square_geom)
        assert len(pairs) == len(scen.trajectory)
        for k, ((ts, pose), (out_pose, frame)) in enumerate(zip(scen.trajectory, pairs)):
            paths, _amp = direct_and_reflections(scen, pose, [0.0, 0.0])
            ref = synth_frame(paths, square_geom, chan80, seq=k, timestamp_ns=ts)
            assert out_pose is pose
            assert frame == ref
            assert frame.csi.tobytes() == ref.csi.tobytes()

    def test_draws_follow_the_documented_order(self, chan80, square_geom):
        # per pose: random reflection phases, then the common phase, then noise
        refl = [Reflection(0.8, 12e-9, 0.6, True), REFLECTIONS[0], Reflection(-1.0, 5e-9, 0.2)]
        truth = random_bias(chan80, 4, seed=4)
        scen = _scenario(chan80, square_geom, reflections=refl, true_calibration=truth,
                         snr_db=20.0, per_packet_phase=True, seed=77,
                         trajectory=disc_trajectory(np.array([0.0, 0.0]), 5.0, 200, seed=13))
        pairs = synth_trajectory(scen, square_geom)
        rng = np.random.default_rng(77)
        bias = np.exp(1j * truth.phase)[:, None, :]
        for (ts, pose), (_, frame) in zip(scen.trajectory, pairs):
            phases = [rng.uniform(0.0, 2.0 * np.pi) if r.random_phase else 0.0 for r in refl]
            paths, amp = direct_and_reflections(scen, pose, phases)
            signal = synth._ray_sum(paths, square_geom, chan80, None)
            rssi = synth._rssi_of(signal)
            signal = signal * bias * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            signal = signal + synth._noise_like(signal, amp, 20.0, rng)
            assert frame.csi.tobytes() == signal.astype(np.complex64).tobytes()
            assert frame.rssi_dbm == float(rssi)

    def test_pose_on_transmitter_raises_degenerate_geometry(self, chan80, square_geom):
        traj = [(0, Pose2D(2.0, 1.0, 0.0)), (1, Pose2D(0.0, 0.0, 0.3))]
        with pytest.raises(DegenerateGeometryError):
            synth_trajectory(_scenario(chan80, square_geom, trajectory=traj), square_geom)

    def test_direct_path_amplitude_underflow_refused(self, chan80, square_geom):
        # within the exponent's bound the direct path cannot underflow, but a
        # faint reflection can: 1e5 m from a -150 dBm transmitter at exponent
        # 10 the direct path is at 1e-31, and 1e-300 of it underflows to zero
        scen = _scenario(chan80, square_geom, tx_power_dbm=-150.0, path_loss_exponent=10.0,
                         trajectory=[(0, Pose2D(1e5, 0.0, 0.0))],
                         reflections=[Reflection(aoa_offset=0.5, excess_delay_s=10e-9,
                                                 rel_amplitude=1e-300)])
        with pytest.raises(ConfigurationError, match="amplitude must be non-zero"):
            synth_trajectory(scen, square_geom)

    def test_empty_trajectory_gives_no_frames(self, chan80, square_geom):
        assert synth_trajectory(_scenario(chan80, square_geom, trajectory=[]), square_geom) == []


class TestPathBounds:
    """`PathComponent` and `Reflection` refuse a field outside its bound with
    ConfigurationError naming the field.

    Tier-1 turns a RuntimeWarning into an error, so an overflow on the way
    to a refusal fails these tests.
    """

    def test_negative_delay(self):
        with pytest.raises(ConfigurationError, match="^path delay must be >= 0$"):
            PathComponent(aoa=0.1, delay_s=-1e-9)

    @pytest.mark.parametrize("name", ["aoa", "aod", "delay_s", "amplitude"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(1.0, np.nan)])
    def test_path_field_not_finite(self, name, value):
        fields = {"aoa": 0.1, name: value}
        with pytest.raises(ConfigurationError, match=f"^path {name} must be finite, got "):
            PathComponent(**fields)

    @pytest.mark.parametrize("name,value,bounds", [
        ("rel_amplitude", np.nan, "must be non-zero and lie in [-100, 100], got nan"),
        ("rel_amplitude", 1e300, "must be non-zero and lie in [-100, 100], got 1e+300"),
        ("rel_amplitude", -np.inf, "must be non-zero and lie in [-100, 100], got -inf"),
        ("rel_amplitude", 0.0, "must be non-zero and lie in [-100, 100], got 0"),
        ("excess_delay_s", np.nan, "must lie in [0, 1e-05], got nan"),
        ("excess_delay_s", -1e-12, "must lie in [0, 1e-05], got -1e-12"),
        ("excess_delay_s", 2e-5, "must lie in [0, 1e-05], got 2e-05"),
        ("aoa_offset", np.inf, "must lie in [-6.28319, 6.28319], got inf"),
        ("aoa_offset", -7.0, "must lie in [-6.28319, 6.28319], got -7"),
    ])
    def test_reflection_field_out_of_bounds(self, name, value, bounds):
        fields = {"aoa_offset": 0.5, "excess_delay_s": 10e-9, "rel_amplitude": 0.5,
                  name: value}
        with pytest.raises(ConfigurationError, match=re.escape(f"reflection {name} {bounds}")):
            Reflection(**fields)

    def test_reflection_bounds_are_inclusive_and_the_scenario_file_keeps_them(self):
        assert synth.MAX_REL_AMPLITUDE == 100.0
        Reflection(aoa_offset=-2 * np.pi, excess_delay_s=1e-5, rel_amplitude=-100.0)
        Reflection(aoa_offset=2 * np.pi, excess_delay_s=0.0, rel_amplitude=100.0)
        assert np.radians(scenario_module._aoa_offset_deg("360")) == synth.AOA_OFFSET_RANGE[1]
        assert scenario_module._excess_delay_ns("10000") * 1e-9 == synth.EXCESS_DELAY_RANGE_S[1]
        with pytest.raises(ValueError, match=re.escape("must lie in [-360, 360]")):
            scenario_module._aoa_offset_deg("-360.5")
        with pytest.raises(ValueError, match=re.escape("must lie in [0, 10000]")):
            scenario_module._excess_delay_ns("10000.5")

    def test_frame_overflowing_complex64_names_its_timestamp(self, square_geom, chan80):
        with pytest.raises(ConfigurationError,
                           match="^frame at timestamp_ns 7: csi overflows complex64$"):
            synth_frame([PathComponent(aoa=0.3, amplitude=1e39)], square_geom, chan80,
                        snr_db=20.0, rng_seed=1, timestamp_ns=7)


class TestOverflowingAmplitude:
    """A direct path whose noise level overflows is refused as the csi
    overflow it causes, whatever the type of its amplitude."""

    @pytest.mark.parametrize("amplitude", [1e200, 1e200 + 1e199j, np.float64(1e200)],
                             ids=["float", "complex", "float64"])
    def test_refused_naming_the_frame(self, square_geom, chan80, amplitude):
        with pytest.raises(ConfigurationError,
                           match="^frame at timestamp_ns 0: csi overflows complex64$"):
            synth_frame([PathComponent(aoa=0.3, amplitude=amplitude)], square_geom, chan80,
                        snr_db=20)

    @pytest.mark.parametrize("amplitude", [0.37, 2.5, 1e-30, 1e30])
    def test_python_and_numpy_amplitudes_give_the_same_bytes(self, square_geom, chan80,
                                                              amplitude):
        frames = [synth_frame([PathComponent(aoa=0.3, amplitude=a)], square_geom, chan80,
                              snr_db=20, rng_seed=5) for a in (amplitude, np.float64(amplitude))]
        assert frames[0].csi.tobytes() == frames[1].csi.tobytes()

    def test_short_source_mac_refused(self, square_geom, chan80):
        with pytest.raises(FrameValidationError, match="^source_mac must be 6 bytes$"):
            synth_frame([PathComponent(aoa=0.3)], square_geom, chan80, source_mac=b"\x01")


def _ap(**kw):
    return ApSpec(**{"location": [1.0, 2.0], "chanspec": ChannelSpec(36, 20),
                     "tx_power_dbm": -30.0, **kw})


class TestScenarioBounds:
    """`ApSpec` and `SimScenario` refuse what a scenario file refuses, naming
    the field, before any RSSI or path is computed.

    Tier-1 turns a RuntimeWarning into an error, so an overflow on the way
    to a refusal fails these tests.
    """

    @pytest.mark.parametrize("location,shown", [
        ([np.nan, 0.0], "[nan, 0.0]"), ([0.0, -np.inf], "[0.0, -inf]"),
        ([1e6 + 1, 0.0], "[1000001.0, 0.0]")])
    def test_location_not_finite_or_too_far(self, chan80, square_geom, location, shown):
        bound = "must be finite and within 1e+06 m of the origin on each axis, got "
        with pytest.raises(ConfigurationError, match=re.escape(f"ap location {bound}{shown}")):
            _ap(location=location)
        with pytest.raises(ConfigurationError, match=re.escape(f"tx_location {bound}{shown}")):
            _scenario(chan80, square_geom, tx_location=location)

    @pytest.mark.parametrize("power,shown", [(np.nan, "nan"), (np.inf, "inf"),
                                             (-150.5, "-150.5"), (50.5, "50.5")])
    def test_power_outside_its_range(self, chan80, square_geom, power, shown):
        message = re.escape(f"tx_power_dbm must lie in [-150, 50], got {shown}")
        with pytest.raises(ConfigurationError, match=f"^ap {message}$"):
            _ap(tx_power_dbm=power)
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            _scenario(chan80, square_geom, tx_power_dbm=power)

    @pytest.mark.parametrize("exponent", [np.nan, np.inf, -np.inf])
    def test_path_loss_exponent_not_finite(self, chan80, square_geom, exponent):
        with pytest.raises(ConfigurationError,
                           match=f"^path_loss_exponent must be finite, got {exponent}$"):
            _scenario(chan80, square_geom, path_loss_exponent=exponent)

    @pytest.mark.parametrize("exponent", [-5.0, 10.5, 1000.0])
    def test_path_loss_exponent_outside_its_range(self, chan80, square_geom, exponent):
        # at -5 a farther AP would read stronger than a nearer one
        message = re.escape(f"path_loss_exponent must lie in [0, 10], got {exponent:g}")
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            _scenario(chan80, square_geom, path_loss_exponent=exponent)

    @pytest.mark.parametrize("pose", [Pose2D(np.nan, 1.0, 0.0), Pose2D(1.0, np.inf, 0.0),
                                      Pose2D(1.0, 2.0, np.nan)])
    def test_pose_not_finite(self, chan80, square_geom, pose):
        trajectory = [(0, Pose2D(1.0, 1.0, 0.0)), (5, pose)]
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"trajectory pose at timestamp_ns 5 must be finite, "
                                           f"got {pose}")):
            _scenario(chan80, square_geom, trajectory=trajectory)

    def test_bounds_are_inclusive(self, chan80, square_geom):
        for power in (-150.0, 50.0):
            _ap(location=[MAX_COORDINATE_M, -MAX_COORDINATE_M], tx_power_dbm=power)
            _scenario(chan80, square_geom, tx_location=[-MAX_COORDINATE_M, MAX_COORDINATE_M],
                      tx_power_dbm=power)

    def test_scenario_file_reads_the_same_ranges(self):
        assert synth.POWER_DBM_RANGE == (-150.0, 50.0)
        assert synth.PATH_LOSS_EXPONENT_RANGE == (0.0, 10.0)
        assert scenario_module._power_dbm("-150") == -150.0
        assert scenario_module._path_loss_exponent("10") == 10.0
        with pytest.raises(ValueError, match=re.escape("must lie in [-150, 50]")):
            scenario_module._power_dbm("50.5")
        with pytest.raises(ValueError, match=re.escape("must lie in [0, 10]")):
            scenario_module._path_loss_exponent("10.5")


class TestSnrBound:
    """`synth_frame` and `SimScenario` take an SNR that is None, +inf (both
    noiseless) or within `SNR_DB_RANGE`, the bound the scenario file keeps,
    and refuse any other with an error that names it."""

    @pytest.mark.parametrize("snr_db,shown", [
        (-4000.0, "-4000"), (-800.0, "-800"), (-100.5, "-100.5"), (300.5, "300.5"),
        (-np.inf, "-inf"), (np.nan, "nan")])
    def test_out_of_range_refused(self, square_geom, chan80, snr_db, shown):
        message = f"snr_db must be None, +inf or lie in [-100, 300] dB, got {shown}"
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            synth_frame([PathComponent(aoa=0.3, delay_s=0.0)], square_geom, chan80,
                        snr_db=snr_db, rng_seed=1)
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            _scenario(chan80, square_geom, snr_db=snr_db)

    @pytest.mark.parametrize("snr_db", [None, np.inf, -100.0, 300.0])
    def test_bounds_and_noiseless_accepted(self, square_geom, chan80, snr_db):
        paths = [PathComponent(aoa=0.3, delay_s=0.0)]
        frame = synth_frame(paths, square_geom, chan80, snr_db=snr_db, rng_seed=1)
        assert np.isfinite(frame.csi.view(np.float32)).all()
        if snr_db is None or snr_db == np.inf:
            assert frame == synth_frame(paths, square_geom, chan80)
        assert len(synth_trajectory(_scenario(chan80, square_geom, snr_db=snr_db),
                                    square_geom)) == 60

    def test_scenario_file_keeps_the_same_bound(self):
        assert synth.SNR_DB_RANGE == (-100.0, 300.0)
        assert scenario_module._snr_db("300") == 300.0
        with pytest.raises(ValueError, match=re.escape("must lie in [-100, 300]")):
            scenario_module._snr_db("-100.5")
