import re

import numpy as np
import pytest

from csisense import (
    AoaConfig,
    ApSpec,
    ArrayGeometry,
    BearingEstimate,
    CalibrationDataset,
    CalibrationMatrix,
    ChannelSpec,
    CoarseResult,
    ConfigurationError,
    CsiFrame,
    DegenerateGeometryError,
    DimensionMismatchError,
    FrameValidationError,
    Pose2D,
    Profile2D,
    SimScenario,
    apply_calibration,
    ground_truth_bearing,
    steering_vector,
    subcarrier_frequencies,
    subcarrier_indices,
    usable_subcarrier_count,
    wavelength,
    wrap_angle,
)
from csisense import core
from csisense.core import SPEED_OF_LIGHT, SUBCARRIER_SPACING_HZ
from csisense.synth import synth_frame, PathComponent
from helpers import expected_csi


class TestChannelSpec:
    def test_center_frequency(self):
        assert ChannelSpec(155, 80).center_freq_hz == 5000e6 + 5e6 * 155

    @pytest.mark.parametrize("bw,count", [(20, 52), (40, 108), (80, 234)])
    def test_usable_counts(self, bw, count):
        assert usable_subcarrier_count(bw) == count

    def test_bad_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            ChannelSpec(36, 160)


class TestSubcarrierFrequencies:
    def test_80mhz_has_234_entries(self, chan80):
        assert subcarrier_frequencies(chan80).size == 234

    def test_first_index_maps_to_minus_122(self, chan80):
        freqs = subcarrier_frequencies(chan80)
        assert freqs[0] == pytest.approx(5775e6 - 122 * 312.5e3)

    @pytest.mark.parametrize("bw", [20, 40, 80])
    def test_strictly_increasing_and_symmetric(self, bw):
        chan = ChannelSpec(100, bw)
        freqs = subcarrier_frequencies(chan)
        assert np.all(np.diff(freqs) > 0)
        idx = subcarrier_indices(chan)
        assert set(idx.tolist()) == set((-idx).tolist())

    @pytest.mark.parametrize("bw,pilots", [(20, (7, 21)), (40, (11, 25, 53)),
                                           (80, (11, 39, 75, 103))])
    def test_pilots_excluded(self, bw, pilots):
        idx = set(subcarrier_indices(ChannelSpec(100, bw)).tolist())
        for p in pilots:
            assert p not in idx and -p not in idx
        assert 0 not in idx


class TestWavelength:
    def test_5775_mhz(self, chan80):
        assert wavelength(chan80) == pytest.approx(0.05191, abs=1e-5)

    def test_5180_mhz(self):
        assert wavelength(ChannelSpec(36, 20)) == pytest.approx(0.05788, abs=1e-5)

    def test_inverse_proportionality(self):
        # doubling center frequency halves the wavelength
        lam1 = wavelength(ChannelSpec(36, 20))
        assert SPEED_OF_LIGHT / (2 * ChannelSpec(36, 20).center_freq_hz) == lam1 / 2


class TestWrapAngle:
    def test_interval_is_half_open_at_minus_pi(self):
        assert wrap_angle(np.pi) == pytest.approx(np.pi)
        assert wrap_angle(-np.pi) == pytest.approx(np.pi)
        assert wrap_angle(3 * np.pi) == pytest.approx(np.pi)

    def test_array_input(self):
        out = wrap_angle(np.array([0.0, 2 * np.pi, -2 * np.pi + 0.1]))
        assert np.allclose(out, [0.0, 0.0, 0.1])


class TestGroundTruthBearing:
    def test_robot_east_of_tx(self):
        assert ground_truth_bearing(Pose2D(1, 0, 0), (0, 0)) == pytest.approx(np.pi / 2)

    def test_robot_north_of_tx(self):
        assert ground_truth_bearing(Pose2D(0, 1, 0), (0, 0)) == pytest.approx(0.0)

    @pytest.mark.parametrize("delta", [0.3, -1.2, 3.0])
    def test_heading_shift_adds_to_bearing(self, delta, rng):
        robot = Pose2D(2.0, -1.0, 0.4)
        shifted = Pose2D(2.0, -1.0, 0.4 + delta)
        base = ground_truth_bearing(robot, (0, 0))
        moved = ground_truth_bearing(shifted, (0, 0))
        assert wrap_angle(moved - base - delta) == pytest.approx(0.0, abs=1e-12)

    def test_coincident_raises(self):
        with pytest.raises(DegenerateGeometryError):
            ground_truth_bearing(Pose2D(1.0, 2.0, 0.0), (1.0, 2.0))


class TestSteeringVector:
    def test_reference_element_is_one(self, square_geom, chan80, rng):
        for theta in rng.uniform(-np.pi, np.pi, 10):
            sv = steering_vector(theta, square_geom, wavelength(chan80))
            assert sv[0] == 1.0 + 0.0j

    def test_linear_array_broadside(self):
        # array along +y with lambda/2 spacing; direction (0, 1)
        lam = 0.06
        geom = ArrayGeometry.uniform_linear(4, lam / 2, axis="y")
        sv = steering_vector(np.pi / 2, geom, lam)
        expected = np.exp(1j * np.pi * np.arange(4))
        assert np.allclose(sv, expected)

    def test_unit_modulus(self, square_geom, chan80, rng):
        for theta in rng.uniform(-np.pi, np.pi, 10):
            sv = steering_vector(theta, square_geom, wavelength(chan80))
            assert np.allclose(np.abs(sv), 1.0)


def bits(a) -> bytes:
    """The bytes of an array: equal bits, signed zeros included."""
    return np.ascontiguousarray(a).tobytes()


class TestBatchedGeometry:
    """The array forms of the geometry agree with the scalar functions bit for bit."""

    def test_bearings_match_scalar(self, rng):
        poses = [Pose2D(*rng.uniform(-20.0, 20.0, 2), rng.uniform(-7.0, 7.0))
                 for _ in range(2000)]
        poses += [Pose2D(1.0, 0.0, 0.0), Pose2D(0.0, -1.0, np.pi), Pose2D(-3.0, 0.0, -np.pi)]
        for tx in ((0.0, 0.0), rng.uniform(-2.0, 2.0, 2)):
            xy, heading = core._pose_arrays(poses)
            batched = core._ground_truth_bearings(xy, heading, tx)
            scalar = np.array([ground_truth_bearing(p, tx) for p in poses])
            assert bits(batched) == bits(scalar)

    @pytest.mark.parametrize("layout", ["square 0.45", "square 0.5", "ula y", "ula x",
                                        "three random"])
    @pytest.mark.parametrize("chan", [ChannelSpec(155, 80), ChannelSpec(36, 20)])
    def test_steering_rows_match_scalar(self, rng, layout, chan):
        lam = wavelength(chan)
        geom = {
            "square 0.45": ArrayGeometry.square(0.45 * lam),
            "square 0.5": ArrayGeometry.square(0.5 * lam),
            "ula y": ArrayGeometry.uniform_linear(4, lam / 2),
            "ula x": ArrayGeometry.uniform_linear(3, lam / 2, axis="x"),
            "three random": ArrayGeometry(np.vstack([[0.0, 0.0],
                                                     rng.uniform(-0.1, 0.1, (2, 2))])),
        }[layout]
        theta = np.concatenate([rng.uniform(-np.pi, np.pi, 500), [0.0, np.pi, -np.pi / 2]])
        batched = steering_vector(theta, geom, lam)
        assert batched.shape == (theta.size, geom.n_antennas)
        # the per-angle formula: one matrix-vector product for each bearing
        per_angle = np.array([np.exp(1j * ((2.0 * np.pi / lam)
                                           * (geom.positions @ np.array([np.cos(t), np.sin(t)]))))
                              for t in theta])
        assert bits(batched) == bits(per_angle)
        scalar = np.array([steering_vector(t, geom, lam) for t in theta])
        assert bits(scalar) == bits(per_angle)

    def test_empty_trajectory(self, square_geom, chan80):
        xy, heading = core._pose_arrays([])
        theta = core._ground_truth_bearings(xy, heading, (0.0, 0.0))
        assert steering_vector(theta, square_geom, wavelength(chan80)).shape == (0, 4)

    def test_pose_on_transmitter_raises(self):
        xy, heading = core._pose_arrays([Pose2D(3.0, 1.0, 0.0), Pose2D(1.0, 2.0, 0.5)])
        with pytest.raises(DegenerateGeometryError):
            core._ground_truth_bearings(xy, heading, (1.0, 2.0))

    def test_scalar_wrap_matches_array_wrap(self, rng):
        theta = np.concatenate([
            rng.uniform(-40.0, 40.0, 5000), rng.uniform(-1e6, 1e6, 100),
            [0.0, -0.0, np.pi, -np.pi, 2 * np.pi, -3 * np.pi, np.nextafter(-np.pi, 0.0),
             np.nextafter(np.pi, 4.0), 1e-300, -5e-324],
        ])
        scalar = np.array([wrap_angle(t) for t in theta])
        assert bits(scalar) == bits(wrap_angle(theta))
        assert all(type(wrap_angle(t)) is float for t in (theta[0], float(theta[1]), 3))


class TestExpectedCsi:
    def test_row0_all_ones(self, square_geom, chan80):
        mat = expected_csi(Pose2D(3, 1, 0.7), (0, 0), square_geom, chan80)
        assert np.allclose(mat[0], 1.0)

    def test_columns_identical(self, square_geom, chan80):
        mat = expected_csi(Pose2D(-2, 4, -1.0), (0, 0), square_geom, chan80)
        assert np.allclose(mat, mat[:, :1])

    def test_zero_bearing_along_y_array_gives_ones(self, chan80):
        geom = ArrayGeometry.uniform_linear(4, 0.02, axis="y")
        # heading chosen so the bearing comes out 0: direction (1, 0) is
        # orthogonal to every (0, d) antenna offset
        robot = Pose2D(0.0, 5.0, 0.0)
        assert ground_truth_bearing(robot, (0, 0)) == pytest.approx(0.0)
        mat = expected_csi(robot, (0, 0), geom, chan80)
        assert np.allclose(mat, 1.0)


def _small_frame(chan20, rng, n_rx=4):
    csi = (rng.standard_normal((n_rx, 1, 52)) + 1j * rng.standard_normal((n_rx, 1, 52)))
    return CsiFrame(csi=csi.astype(np.complex64), rssi_dbm=-40.0,
                    source_mac=b"\x02\x00\x00\x00\x00\x01", seq=7,
                    chanspec=chan20, timestamp_ns=123)


class TestCsiFrame:
    def test_subcarrier_count_enforced(self, chan80, rng):
        with pytest.raises(FrameValidationError):
            CsiFrame(csi=np.ones((4, 1, 100), np.complex64), rssi_dbm=-40,
                     source_mac=b"\x00" * 6, seq=0, chanspec=chan80, timestamp_ns=0)

    def test_nonfinite_rejected(self, chan20):
        csi = np.ones((1, 1, 52), np.complex64)
        csi[0, 0, 3] = np.nan
        with pytest.raises(FrameValidationError):
            CsiFrame(csi=csi, rssi_dbm=-40, source_mac=b"\x00" * 6, seq=0,
                     chanspec=chan20, timestamp_ns=0)

    def test_antenna_count_bounds(self, chan20):
        with pytest.raises(FrameValidationError):
            CsiFrame(csi=np.ones((5, 1, 52), np.complex64), rssi_dbm=-40,
                     source_mac=b"\x00" * 6, seq=0, chanspec=chan20, timestamp_ns=0)


class TestApplyCalibration:
    def test_zero_phase_is_identity(self, chan20, rng):
        frame = _small_frame(chan20, rng)
        cal = CalibrationMatrix(phase=np.zeros((4, 52)), chanspec=chan20)
        assert apply_calibration(cal, frame) == frame

    def test_phase_then_negated_phase_round_trips(self, chan20, rng):
        frame = _small_frame(chan20, rng)
        phase = rng.uniform(-np.pi, np.pi, (4, 52))
        forward = apply_calibration(CalibrationMatrix(phase=phase, chanspec=chan20), frame)
        back = apply_calibration(CalibrationMatrix(phase=-phase, chanspec=chan20), forward)
        assert np.allclose(back.csi, frame.csi, atol=1e-5)

    def test_magnitudes_preserved(self, chan20, rng):
        frame = _small_frame(chan20, rng)
        phase = rng.uniform(-np.pi, np.pi, (4, 52))
        out = apply_calibration(CalibrationMatrix(phase=phase, chanspec=chan20), frame)
        assert np.allclose(np.abs(out.csi), np.abs(frame.csi), rtol=1e-5)

    def test_rotor_is_exp_of_phase_bit_for_bit(self, chan20, rng):
        frame = _small_frame(chan20, rng)
        phase = rng.uniform(-np.pi, np.pi, (4, 52))
        out = apply_calibration(CalibrationMatrix(phase=phase, chanspec=chan20), frame)
        reference = (frame.csi * np.exp(1j * phase)[:, None, :]).astype(np.complex64)
        assert out.csi.dtype == np.complex64
        assert out.csi.tobytes() == reference.tobytes()

    def test_product_that_overflows_complex64_rejected(self, chan20):
        big = np.finfo(np.float32).max * (1 + 1j)
        frame = CsiFrame(np.full((1, 1, 52), big, dtype=np.complex64), -40.0, bytes(6), 0,
                         chan20, 0)
        cal = CalibrationMatrix(phase=np.full((1, 52), np.pi / 4), chanspec=chan20)
        with np.errstate(over="ignore"), pytest.raises(FrameValidationError, match="finite"):
            apply_calibration(cal, frame)

    def test_phase_and_rotor_read_only_and_detached(self, chan20, rng):
        phase = rng.uniform(-np.pi, np.pi, (4, 52))
        cal = CalibrationMatrix(phase=phase, chanspec=chan20)
        phase[0, 0] = 1.0  # the caller's array is not the calibration's
        assert cal.phase[0, 0] != 1.0
        assert np.array_equal(cal.rotor, np.exp(1j * cal.phase)[:, None, :])
        for array in (cal.phase, cal.rotor):
            with pytest.raises(ValueError):
                array[0, 0] = 0.0

    def test_chanspec_mismatch_rejected(self, chan20, chan80, rng):
        frame = _small_frame(chan20, rng)
        cal = CalibrationMatrix(phase=np.zeros((4, 234)), chanspec=chan80)
        with pytest.raises(DimensionMismatchError):
            apply_calibration(cal, frame)

    def test_dimension_mismatch_rejected(self, chan20, rng):
        frame = _small_frame(chan20, rng)
        cal = CalibrationMatrix(phase=np.zeros((2, 52)), chanspec=chan20)
        with pytest.raises(DimensionMismatchError):
            apply_calibration(cal, frame)


class TestArrayGeometry:
    def test_reference_antenna_at_origin_required(self):
        with pytest.raises(ConfigurationError):
            ArrayGeometry(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_duplicate_positions_rejected(self):
        with pytest.raises(ConfigurationError):
            ArrayGeometry(np.array([[0.0, 0.0], [0.1, 0.0], [0.1, 0.0]]))

    def test_more_antennas_than_a_frame_carries_rejected(self):
        assert len(ArrayGeometry.uniform_linear(core.MAX_ANTENNAS, 0.02)) == 4
        with pytest.raises(ConfigurationError, match="5 antennas; a frame carries at most 4"):
            ArrayGeometry.uniform_linear(core.MAX_ANTENNAS + 1, 0.02)

    def test_count_refused_before_the_positions_are_allocated(self, monkeypatch):
        monkeypatch.setattr(core.np, "zeros", None)  # a call would raise TypeError
        with pytest.raises(ConfigurationError, match="1000000 antennas; a frame carries"):
            ArrayGeometry.uniform_linear(10**6, 0.02)

    @pytest.mark.parametrize("point", [(np.inf, 0.0), (0.0, np.nan), (1e308, 0.0),
                                       (0.0, -1e308), (1.5e308, 1.5e308)])
    def test_non_finite_or_far_antenna_rejected(self, point):
        # tier-1 fails on a RuntimeWarning, so an overflowing check fails here too
        with pytest.raises(ConfigurationError, match="finite|from antenna 0; at most 2 m"):
            ArrayGeometry(np.array([[0.0, 0.0], point]))

    def test_antenna_distance_bound_is_inclusive(self):
        bound = core.MAX_ANTENNA_DISTANCE_M
        assert ArrayGeometry(np.array([[0.0, 0.0], [0.0, bound]])).n_antennas == 2
        with pytest.raises(ConfigurationError, match=r"^antenna 2 is 2\.1 m from antenna 0"):
            ArrayGeometry(np.array([[0.0, 0.0], [0.0, bound], [bound + 0.1, 0.0]]))

    @pytest.mark.parametrize("spacing", [1e308, -1e308, np.inf, np.nan, 2.5])
    def test_layout_spacing_checked_before_it_multiplies(self, spacing):
        for make in (lambda: ArrayGeometry.uniform_linear(4, spacing),
                     lambda: ArrayGeometry.square(spacing)):
            with pytest.raises(ConfigurationError,
                               match="^antenna spacing must be finite and at most 2 m, got "):
                make()


_CHAN20 = ChannelSpec(36, 20)


def _frame(k):
    return CsiFrame(csi=np.full((2, 1, 52), 1.0 + k, np.complex64), rssi_dbm=-40.0,
                    source_mac=b"\x02\x00\x00\x00\x00\x01", seq=7, chanspec=_CHAN20,
                    timestamp_ns=123)


# Each factory gives equal, distinct instances for equal k, and different
# ndarray contents (or shapes) for different k.  True: compared by value.
_ARRAY_HOLDERS = {
    "ArrayGeometry": (lambda k: ArrayGeometry.square(0.02 + k), True),
    "CalibrationMatrix": (lambda k: CalibrationMatrix(np.full((2, 52), 0.5 * k), _CHAN20),
                          True),
    "Profile2D": (lambda k: Profile2D(np.full((3, 2), 1.0 + k), np.arange(3.0),
                                      np.arange(2.0)), True),
    "CsiFrame": (_frame, True),
    "AoaConfig": (lambda k: AoaConfig(theta_grid=np.radians(np.arange(0.0, 90.0 + k, 3.0))),
                  False),
    "ApSpec": (lambda k: ApSpec(np.array([1.0, k]), _CHAN20, -30.0), False),
    "SimScenario": (lambda k: SimScenario(np.array([0.0, k]), _CHAN20,
                                          [(0, Pose2D(1, 2, 0))]), False),
    "CalibrationDataset": (lambda k: CalibrationDataset(
        [(Pose2D(1, 2, 0), _frame(k))], np.zeros(2), ArrayGeometry.square(0.02), _CHAN20),
        False),
    "CoarseResult": (lambda k: CoarseResult(np.zeros((2, 52)), np.full(104, 1.0 + k),
                                            np.array([2.0, 1.0])), False),
}


class TestEquality:
    @pytest.mark.parametrize("make,by_value", _ARRAY_HOLDERS.values(),
                             ids=_ARRAY_HOLDERS.keys())
    def test_array_holders_compare_without_raising_and_agree_with_hash(self, make,
                                                                        by_value):
        a, b, other = make(0), make(0), make(1)
        assert a is not b and a == a
        assert (a == b) is by_value and (a != b) is not by_value
        assert a != other and not a == other
        if by_value:
            # a hash of array bytes would tell -0.0 from 0.0, which == does not
            with pytest.raises(TypeError, match="unhashable"):
                hash(a)
        else:  # compared by identity, hashed by identity
            assert hash(a) == hash(a) and len({a, b}) == 2


class TestProfile2DValues:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300])
    def test_rejects_non_finite_and_negative_cells(self, bad):
        values = np.full((3, 2), 0.5)
        values[1, 1] = bad
        with pytest.raises(ConfigurationError, match="finite and non-negative"):
            Profile2D(values, np.arange(3.0), np.arange(2.0))

    @pytest.mark.parametrize("fill", [-0.0, 0.0])
    def test_accepts_signed_zero_and_an_all_zero_grid(self, fill):
        profile = Profile2D(np.full((3, 2), fill), np.arange(3.0), np.arange(2.0))
        assert not profile.values.any()

    def test_accepts_an_empty_grid(self):
        assert Profile2D(np.zeros((0, 2)), np.arange(0.0), np.arange(2.0)).values.size == 0

    @pytest.mark.parametrize("grid", [[np.nan, np.nan], [0.0, np.nan, 1.0], [np.nan],
                                      [np.inf], [-np.inf, 0.0], [0.0, np.inf]])
    def test_rejects_a_non_finite_grid(self, grid):
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            Profile2D(np.zeros((len(grid), 2)), grid, [0.0, 1.0])
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            Profile2D(np.zeros((2, len(grid))), [0.0, 1.0], grid)


class TestRefusals:
    """Each core type's refusal of a malformed field, with its message."""

    def test_by_value_types_compare_unequal_to_another_type(self, chan20, rng):
        frame = _small_frame(chan20, rng)
        assert frame.__eq__("frame") is NotImplemented
        assert frame != "frame" and not frame == 3

    def test_unsupported_bandwidth(self):
        with pytest.raises(ConfigurationError, match="^unsupported bandwidth 30 MHz$"):
            usable_subcarrier_count(30)

    def test_csi_must_be_3d(self, chan20):
        with pytest.raises(FrameValidationError, match=r"^csi must be 3-D, got shape \(1, 52\)$"):
            CsiFrame(csi=np.ones((1, 52), np.complex64), rssi_dbm=-40,
                     source_mac=b"\x00" * 6, seq=0, chanspec=chan20, timestamp_ns=0)

    def test_calibration_phase_shape(self, chan20):
        with pytest.raises(ConfigurationError,
                           match=r"^calibration phase must be 2-D \(n_rx, n_sub\)$"):
            CalibrationMatrix(np.zeros(52), chan20)
        with pytest.raises(ConfigurationError,
                           match="^calibration has 51 subcarriers, chanspec expects 52$"):
            CalibrationMatrix(np.zeros((4, 51)), chan20)

    def test_negative_bearing_strength(self):
        with pytest.raises(ConfigurationError, match="^bearing strength must be >= 0$"):
            BearingEstimate(theta=0.1, strength=-1e-9, rssi_dbm=-40.0,
                            source_mac=b"\x00" * 6, timestamp_ns=0)

    def test_profile_shape_must_match_its_grids(self):
        with pytest.raises(DimensionMismatchError, match=re.escape(
                "profile shape (3, 2) does not match grids (3, 3)")):
            Profile2D(np.zeros((3, 2)), np.arange(3.0), np.arange(3.0))

    @pytest.mark.parametrize("lambda_m", [0.0, -0.05])
    def test_steering_vector_needs_a_positive_wavelength(self, lambda_m):
        with pytest.raises(ConfigurationError, match="^wavelength must be positive$"):
            steering_vector(0.3, ArrayGeometry.square(0.02), lambda_m)


class TestSynthSlopeOracle:
    def test_tof_phase_slope_matches_model(self, square_geom, chan80):
        # independent oracle: the ray model evaluated at two adjacent
        # subcarriers gives phase step -2*pi*312.5e3*tau per index
        tau = 40e-9
        frame = synth_frame([PathComponent(aoa=0.3, delay_s=tau)], square_geom, chan80)
        freqs = subcarrier_frequencies(chan80)
        row = frame.csi[0, 0, :].astype(np.complex128)
        gaps = np.diff(freqs)
        unit = np.isclose(gaps, SUBCARRIER_SPACING_HZ)
        steps = np.angle(row[1:][unit] * np.conj(row[:-1][unit]))
        expected = wrap_angle(-2 * np.pi * SUBCARRIER_SPACING_HZ * tau)
        assert np.allclose(steps, expected, atol=1e-4)


def _low_rank_plus_noise(rng, dim, n, strengths, noise=0.01):
    """dim x n complex snapshots: one random direction per strength, plus noise."""
    x = noise * (rng.standard_normal((dim, n)) + 1j * rng.standard_normal((dim, n)))
    for s in strengths:
        direction = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        weights = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x += s * np.outer(direction / np.linalg.norm(direction), weights)
    return x


class TestLeadingEigenpairs:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_eigh(self, rng, k):
        x = _low_rank_plus_noise(rng, 150, 300, [3.0, 2.0, 1.2][:k] + [0.5])
        values, vectors = core._leading_eigenpairs(x, k)
        ref_vals, ref_vecs = np.linalg.eigh(x @ x.conj().T / x.shape[1])
        scale = ref_vals[-1]
        assert values.shape == (k,) and vectors.shape == (150, k)
        assert np.max(np.abs(values - ref_vals[-k:])) <= 1e-12 * scale
        # the same subspace: equal orthogonal projectors
        top = ref_vecs[:, -k:]
        assert np.max(np.abs(vectors @ vectors.conj().T - top @ top.conj().T)) <= 1e-12

    @pytest.mark.parametrize("case", ["equal eigenvalues", "noise bulk"])
    def test_not_separated_ends_in_one_dense_gram_eigh(self, rng, case, monkeypatch):
        if case == "equal eigenvalues":
            x = np.eye(40, dtype=np.complex128)  # rounding-floor stop at the first test
        else:
            x = rng.standard_normal((200, 400)) + 1j * rng.standard_normal((200, 400))
        shapes = []
        eigh = np.linalg.eigh

        def recording(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("dense SVD inside the solver")

        monkeypatch.setattr(np.linalg, "eigh", recording)
        monkeypatch.setattr(np.linalg, "svd", forbidden)
        values, vectors = core._leading_eigenpairs(x, 1)
        monkeypatch.undo()
        small = min(x.shape)
        assert shapes[-1] == (small, small)
        assert shapes[:-1] and max(s[0] for s in shapes[:-1]) <= core._KRYLOV_MAX_BASIS
        ref_vals = np.linalg.eigvalsh(x @ x.conj().T / x.shape[1])
        assert abs(values[0] - ref_vals[-1]) <= 1e-12 * ref_vals[-1]
        assert np.linalg.norm(vectors[:, 0]) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_dense_wide_snapshots_match_eigh(self, rng, k):
        # dim > n: the dense solve runs on the n x n Gram X^H X / n
        x = _low_rank_plus_noise(rng, 120, 30, [3.0, 2.0, 1.2][:k] + [0.5])
        values, vectors = core._dense_eigenpairs(x, k)
        ref_vals, ref_vecs = np.linalg.eigh(x @ x.conj().T / x.shape[1])
        assert values.shape == (k,) and vectors.shape == (120, k)
        assert np.max(np.abs(values - ref_vals[-k:])) <= 1e-12 * ref_vals[-1]
        top = ref_vecs[:, -k:]
        assert np.max(np.abs(vectors @ vectors.conj().T - top @ top.conj().T)) <= 1e-12

    @pytest.mark.parametrize("dim, n, k", [(4, 52, 4), (4, 208, 2), (30, 6, 3)])
    def test_dense_stack_solves_each_matrix_as_alone(self, rng, dim, n, k):
        # a leading stack axis, the tall and the wide branch, and an
        # all-zero matrix in the stack: each member's pairs bit for bit
        stack = rng.standard_normal((5, dim, n)) + 1j * rng.standard_normal((5, dim, n))
        stack[3] = 0.0
        values, vectors = core._dense_eigenpairs(stack, k)
        assert values.shape == (5, k) and vectors.shape == (5, dim, k)
        for member, (vals, vecs) in zip(stack, zip(values, vectors)):
            alone = core._dense_eigenpairs(member, k)
            assert np.array_equal(vals, alone[0]) and np.array_equal(vecs, alone[1])

    def test_dense_zero_image_gives_zero_value_not_nan(self):
        # every Gram eigenvector maps to X v = 0: no division by a zero norm
        values, vectors = core._dense_eigenpairs(np.zeros((12, 5), np.complex128), 2)
        assert np.array_equal(values, [0.0, 0.0])
        assert np.array_equal(vectors, np.zeros((12, 2)))

    def test_repeatable_and_leaves_global_random_state(self, rng):
        x = _low_rank_plus_noise(rng, 100, 80, [2.0, 1.0])
        before = np.random.get_state()
        first = core._leading_eigenpairs(x, 2)
        second = core._leading_eigenpairs(x, 2)
        after = np.random.get_state()
        for a, b in zip(first, second):
            assert np.array_equal(a, b)
        assert before[0] == after[0] and np.array_equal(before[1], after[1])
        assert before[2:] == after[2:]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_without_then_next_bytes_match_the_plain_loop(self, rng, k):
        # SpotFi's k-pair solve keeps its arithmetic: the same bytes as the
        # loop had before it could continue past the k pairs, and the same
        # k pairs when it is asked to continue
        x = _low_rank_plus_noise(rng, 150, 300, [3.0, 2.0, 1.2][:k] + [0.5])
        values, vectors = core._leading_eigenpairs(x, k)
        ref_values, ref_vectors = _plain_krylov(x, k)
        assert values.tobytes() == ref_values.tobytes()
        assert vectors.tobytes() == ref_vectors.tobytes()
        cont_values, cont_vectors, _following = core._leading_eigenpairs(x, k, then_next=True)
        assert cont_values.tobytes() == values.tobytes()
        assert cont_vectors.tobytes() == vectors.tobytes()

    @pytest.mark.parametrize("k", [1, 2])
    def test_then_next_gives_the_next_eigenvector(self, rng, k):
        x = _low_rank_plus_noise(rng, 150, 300, [3.0, 2.0, 1.2][:k + 1] + [0.5])
        following = core._leading_eigenpairs(x, k, then_next=True)[2]
        ref_vecs = np.linalg.eigh(x @ x.conj().T / x.shape[1])[1]
        ref = ref_vecs[:, -k - 1]
        assert np.linalg.norm(following) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.vdot(ref, following)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("then_next", [False, True])
    @pytest.mark.parametrize("rank", ["full", "rank-1"])
    def test_cold_and_warm_start_block_give_the_same_bytes(self, rng, rank, then_next):
        # the start block is drawn once per shape.  On rank-1 data the
        # second basis vector, C u, has nothing left once projected, so it
        # is a direction from the generator advanced past the block, as a
        # per-call draw left it, and the pairs depend on its bits
        if rank == "full":
            k, x = 2, _low_rank_plus_noise(rng, 60, 90, [3.0, 2.0, 0.5])
        else:
            k, x = 1, np.outer(rng.standard_normal(60) + 1j * rng.standard_normal(60),
                               rng.standard_normal(90) + 1j * rng.standard_normal(90))
        core._start_block.cache_clear()
        cold = core._leading_eigenpairs(x, k, then_next=then_next)
        warm = core._leading_eigenpairs(x, k, then_next=then_next)
        assert core._start_block.cache_info().hits == 1
        assert len(cold) == len(warm) == (3 if then_next else 2)
        for a, b in zip(cold, warm):
            assert a.tobytes() == b.tobytes()
        for a, b in zip(cold, _plain_krylov(x, k)):
            assert a.tobytes() == b.tobytes()

    def test_then_next_in_a_noise_bulk_gives_none(self, rng):
        x = _low_rank_plus_noise(rng, 200, 400, [3.0], noise=1.0)
        values, vectors, following = core._leading_eigenpairs(x, 1, then_next=True)
        assert following is None
        ref_vals = np.linalg.eigvalsh(x @ x.conj().T / x.shape[1])
        assert abs(values[0] - ref_vals[-1]) <= 1e-12 * ref_vals[-1]


def _plain_krylov(snapshots, k):
    """`core._leading_eigenpairs` as it was before it could continue past k pairs."""
    dim, n = snapshots.shape
    rows = snapshots.T
    limit = min(core._KRYLOV_MAX_BASIS, dim)
    rng = np.random.default_rng(core._KRYLOV_SEED)
    basis = np.empty((dim, limit), dtype=np.complex128)
    images = np.empty_like(basis)
    gram = np.empty((limit, limit), dtype=np.complex128)
    block = snapshots @ core._gaussian(rng, (n, k))
    m = 0
    while m + k <= limit:
        start = m
        for v in block.T:
            m = core._append_orthonormal(basis, m, v, rng)
        new = basis[:, start:m]
        images[:, start:m] = snapshots @ np.conj(rows @ np.conj(new)) / n
        gram[:m, start:m] = basis[:, :m].conj().T @ images[:, start:m]
        ritz_vals, ritz_coef = np.linalg.eigh(gram[:m, :m], UPLO="U")
        if m > k:
            gap = ritz_vals[m - k] - ritz_vals[m - k - 1]
            if core._KRYLOV_TOL * gap <= np.finfo(float).eps * ritz_vals[-1]:
                break
            top = ritz_coef[:, m - k:]
            vectors = basis[:, :m] @ top
            residual = images[:, :m] @ top - vectors * ritz_vals[m - k:]
            if np.linalg.norm(residual) <= core._KRYLOV_TOL * gap:
                return ritz_vals[m - k:], vectors
        block = images[:, start:m]
    return core._dense_eigenpairs(snapshots, k)
