import numpy as np
import pytest

from csisense import (
    ArrayGeometry,
    CalibrationMatrix,
    ChannelSpec,
    ConfigurationError,
    CsiFrame,
    DegenerateGeometryError,
    DimensionMismatchError,
    FrameValidationError,
    Pose2D,
    apply_calibration,
    expected_csi,
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
