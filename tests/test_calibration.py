import numpy as np
import pytest

from csisense import calibration, core
from csisense import (
    ArrayGeometry,
    CalibrationDataset,
    CalibrationError,
    CalibrationMatrix,
    ChannelSpec,
    LowConfidenceError,
    Pose2D,
    SimScenario,
    apply_calibration,
    calibrate,
    coarse_calibration,
    suppress_bearing,
    expected_csi,
    synth_frame,
    synth_trajectory,
    wrap_angle,
)
from csisense.calibration import load_calibration, parse_geometry, save_calibration
from csisense.core import CsiFrame
from csisense.scenario import disc_trajectory, random_bias
from csisense.synth import PathComponent


def make_dataset(chan, geom, n_pairs=120, bias=None, snr_db=30.0,
                 per_packet_phase=True, seed=3):
    scen = SimScenario(
        tx_location=np.array([0.0, 0.0]),
        chanspec=chan,
        trajectory=disc_trajectory(np.array([0.0, 0.0]), 5.0, n_pairs, seed=seed),
        true_calibration=bias,
        snr_db=snr_db,
        per_packet_phase=per_packet_phase,
        seed=seed,
    )
    pairs = synth_trajectory(scen, geom)
    return CalibrationDataset(pairs=pairs, tx_location=scen.tx_location,
                              geom=geom, chanspec=chan)


class TestSuppressBearing:
    def test_exact_model_gives_all_ones(self, square_geom, chan80):
        pose = Pose2D(2.0, 1.5, 0.3)
        model = expected_csi(pose, (0, 0), square_geom, chan80)
        frame = CsiFrame(csi=model[:, None, :].astype(np.complex64), rssi_dbm=-40,
                         source_mac=b"\x00" * 6, seq=0, chanspec=chan80, timestamp_ns=0)
        sup = suppress_bearing(frame, pose, (0, 0), square_geom)
        assert np.allclose(sup, 1.0, atol=1e-5)

    def test_bias_times_model_leaves_bias(self, square_geom, chan80, rng):
        pose = Pose2D(-1.0, 3.0, -0.7)
        phi = rng.uniform(-np.pi, np.pi, (4, 234))
        model = expected_csi(pose, (0, 0), square_geom, chan80)
        biased = np.exp(1j * phi) * model
        frame = CsiFrame(csi=biased[:, None, :].astype(np.complex64), rssi_dbm=-40,
                         source_mac=b"\x00" * 6, seq=0, chanspec=chan80, timestamp_ns=0)
        sup = suppress_bearing(frame, pose, (0, 0), square_geom)
        assert np.max(np.abs(wrap_angle(np.angle(sup) - phi))) < 1e-4

    def test_equals_product_with_conj_expected_csi(self, square_geom, chan80):
        frame = synth_frame([PathComponent(aoa=0.4, delay_s=10e-9)], square_geom, chan80,
                            snr_db=20.0, rng_seed=2)
        pose = Pose2D(1.5, -2.0, 0.9)
        model = expected_csi(pose, (0.3, 0.1), square_geom, chan80)
        ref = frame.csi[:, 0, :].astype(np.complex128) * np.conj(model)
        assert np.array_equal(suppress_bearing(frame, pose, (0.3, 0.1), square_geom), ref)

    def test_magnitudes_unchanged(self, square_geom, chan80):
        frame = synth_frame([PathComponent(aoa=0.4, delay_s=10e-9, amplitude=1.7)],
                            square_geom, chan80)
        sup = suppress_bearing(frame, Pose2D(1, 1, 0), (0, 0), square_geom)
        assert np.allclose(np.abs(sup), np.abs(frame.csi[:, 0, :]), rtol=1e-6)


class TestCoarseCalibration:
    def test_rank_one_recovers_phase_up_to_constant(self, rng):
        phi = rng.uniform(-np.pi, np.pi, (4, 52))
        snaps = [np.exp(1j * phi)] * 10
        coarse = coarse_calibration(snaps)
        delta = wrap_angle(coarse.phi_coarse - phi)
        # one global constant: all deltas equal
        assert np.max(np.abs(wrap_angle(delta - delta.flat[0]))) < 1e-9

    def test_spectral_gap_large_for_small_noise(self, rng):
        phi = rng.uniform(-np.pi, np.pi, (4, 52))
        snaps = [np.exp(1j * phi)
                 + 0.03 * (rng.standard_normal((4, 52)) + 1j * rng.standard_normal((4, 52)))
                 for _ in range(40)]
        coarse = coarse_calibration(snaps)
        assert coarse.singular_values[0] > 10 * coarse.singular_values[1]

    def test_requires_two_snapshots(self, rng):
        with pytest.raises(CalibrationError):
            coarse_calibration([np.ones((2, 5), complex)])

    def test_all_zero_rejected(self):
        with pytest.raises(CalibrationError):
            coarse_calibration([np.zeros((2, 5), complex)] * 4)


def pipeline_snapshots(chan, geom, monkeypatch, n_pairs=120, seed=31):
    """The suppressed, slope-removed snapshots `calibrate` hands to `coarse_calibration`."""
    captured = []

    def capture(sups):
        captured.append(sups)
        return coarse_calibration(sups)

    with monkeypatch.context() as patch:
        patch.setattr(calibration, "coarse_calibration", capture)
        calibrate(make_dataset(chan, geom, n_pairs=n_pairs,
                               bias=random_bias(chan, 4, seed=seed), seed=seed))
    return captured[0]


def noisy_snapshots(rng, shape, n, noise):
    phi = rng.uniform(-np.pi, np.pi, shape)
    return [np.exp(1j * phi)
            + noise * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            for _ in range(n)]


def svd_calls(monkeypatch):
    """Record the keyword arguments of every np.linalg.svd call."""
    calls = []
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        calls.append(kwargs)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return calls


def assert_matches_economy_svd(coarse, sups, rank_one=False):
    stacked = np.stack([np.asarray(s, dtype=np.complex128).ravel() for s in sups], axis=1)
    u, sv, _vh = np.linalg.svd(stacked, full_matrices=False)
    ref_u0 = u[:, 0]
    phase = np.vdot(ref_u0, coarse.u0)
    phase /= np.abs(phase)  # u0 is defined up to one global phase
    assert np.max(np.abs(coarse.u0 - phase * ref_u0)) <= 1e-12
    assert coarse.singular_values[0] == pytest.approx(sv[0], rel=1e-12)
    if rank_one:
        # sigma_2 is rounding noise on both sides: only its size compares
        assert coarse.singular_values[1] <= 1e-12 * sv[0] and sv[1] <= 1e-12 * sv[0]
        assert coarse.spectral_gap > 1e12
    else:
        assert coarse.singular_values[1] == pytest.approx(sv[1], rel=1e-12)
        assert coarse.spectral_gap == pytest.approx(sv[0] / sv[1], rel=1e-12)


def coarse_case(case, rng, geom, chan, monkeypatch):
    """Snapshots for one TestCoarseLeadingPair input."""
    if case == "survey-like":
        return pipeline_snapshots(chan, geom, monkeypatch)
    if case == "noise bulk":  # sigma_2 ~ sigma_3: the deflated solve does not separate
        return noisy_snapshots(rng, (4, 52), 60, noise=0.3)
    if case == "exact rank one":
        phi = rng.uniform(-np.pi, np.pi, (4, 52))
        weights = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        return [w * np.exp(1j * phi) for w in weights]
    if case in ("2 pairs", "3 pairs"):
        return noisy_snapshots(rng, (4, 52), int(case[0]), noise=0.3)
    if case == "more pairs than rows":
        return noisy_snapshots(rng, (2, 5), 40, noise=0.3)
    raise ValueError(case)


COARSE_CASES = ["survey-like", "noise bulk", "exact rank one", "2 pairs", "3 pairs",
                "more pairs than rows"]


class TestCoarseLeadingPair:
    def test_survey_like_data_calls_no_svd(self, rng, square_geom, chan80, monkeypatch):
        sups = coarse_case("survey-like", rng, square_geom, chan80, monkeypatch)
        calls = svd_calls(monkeypatch)
        coarse = coarse_calibration(sups)
        assert calls == []
        assert_matches_economy_svd(coarse, sups)

    def test_noise_bulk_takes_sigma_2_from_dense_gram_eigh(self, rng, monkeypatch):
        sups = coarse_case("noise bulk", rng, None, None, monkeypatch)
        shapes = []
        eigh = np.linalg.eigh

        def recording(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", recording)
            coarse = coarse_calibration(sups)
        # Krylov Ritz problems, then one eigh of the 60 x 60 Gram (T < n = 208)
        assert shapes[-1] == (60, 60)
        assert max(s[0] for s in shapes[:-1]) <= core._KRYLOV_MAX_BASIS
        assert_matches_economy_svd(coarse, sups)

    @pytest.mark.parametrize("case", COARSE_CASES)
    def test_no_input_calls_svd(self, rng, square_geom, chan80, monkeypatch, case):
        sups = coarse_case(case, rng, square_geom, chan80, monkeypatch)

        def forbidden(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "svd", forbidden)
            coarse_calibration(sups)

    def test_exact_rank_one(self, rng):
        sups = coarse_case("exact rank one", rng, None, None, None)
        assert_matches_economy_svd(coarse_calibration(sups), sups, rank_one=True)

    @pytest.mark.parametrize("n_pairs", [2, 3])
    def test_few_pairs(self, rng, n_pairs):
        sups = coarse_case(f"{n_pairs} pairs", rng, None, None, None)
        assert_matches_economy_svd(coarse_calibration(sups), sups)

    def test_more_pairs_than_rows(self, rng):
        sups = coarse_case("more pairs than rows", rng, None, None, None)
        assert_matches_economy_svd(coarse_calibration(sups), sups)


def off_component_power(u0, phi):
    """n - |u0^H exp(j*phi)|^2, the objective the calibration minimizes."""
    return u0.size - np.abs(np.vdot(u0, np.exp(1j * np.ravel(phi)))) ** 2


class TestClosedForm:
    def test_noiseless_rank_one_objective_near_zero(self, rng):
        phi = rng.uniform(-np.pi, np.pi, (4, 52))
        coarse = coarse_calibration([np.exp(1j * phi)] * 8)
        assert off_component_power(coarse.u0, coarse.phi_coarse) < 1e-6

    def test_phase_of_leading_vector_is_optimal(self, rng):
        # |u0^H x| <= sum |u0_i| = |u0^H exp(j*phi_coarse)| for every
        # unit-modulus x, so no perturbation of phi_coarse can improve it
        phi = rng.uniform(-np.pi, np.pi, (4, 40))
        snaps = [np.exp(1j * phi)
                 + 0.3 * (rng.standard_normal((4, 40)) + 1j * rng.standard_normal((4, 40)))
                 for _ in range(30)]
        coarse = coarse_calibration(snaps)
        u0 = coarse.u0
        l1 = float(np.sum(np.abs(u0)))
        best = np.abs(np.vdot(u0, np.exp(1j * coarse.phi_coarse.ravel())))
        assert best == pytest.approx(l1, rel=1e-12)
        for _ in range(50):
            x = np.exp(1j * rng.uniform(-np.pi, np.pi, u0.size))
            assert np.abs(np.vdot(u0, x)) <= l1 * (1 + 1e-12)
        base = off_component_power(u0, coarse.phi_coarse)
        for scale in (1e-4, 1e-2, 0.4):
            for _ in range(20):
                nudged = coarse.phi_coarse + rng.normal(0, scale, coarse.phi_coarse.shape)
                assert off_component_power(u0, nudged) >= base - 1e-9


class TestCalibrate:
    def test_recovers_injected_bias_differences(self, square_geom, chan80):
        truth = random_bias(chan80, 4, seed=31)
        ds = make_dataset(chan80, square_geom, n_pairs=120, bias=truth, seed=31)
        result = calibrate(ds)
        est_bias_diff = -result.matrix.phase  # stored matrix is the correction
        true_diff = truth.phase - truth.phase[0:1, :]
        err = np.abs(wrap_angle(est_bias_diff[1:] - true_diff[1:]))
        assert np.degrees(np.median(err)) < 2.0
        assert result.spectral_gap >= 3.0
        assert result.fine_objective <= result.coarse_objective

    def test_zero_bias_recovers_zero(self, square_geom, chan80):
        ds = make_dataset(chan80, square_geom, n_pairs=120, bias=None, seed=8)
        result = calibrate(ds)
        assert np.degrees(np.median(np.abs(result.matrix.phase))) < 2.0

    def test_row0_is_zero(self, square_geom, chan80):
        ds = make_dataset(chan80, square_geom, n_pairs=80, seed=9)
        result = calibrate(ds)
        assert np.allclose(result.matrix.phase[0], 0.0)

    def test_too_few_pairs(self, square_geom, chan80):
        ds = make_dataset(chan80, square_geom, n_pairs=30, seed=10)
        with pytest.raises(CalibrationError):
            calibrate(ds, min_pairs=50)

    def test_inconsistent_chanspec_rejected(self, square_geom, chan80, chan20):
        ds = make_dataset(chan80, square_geom, n_pairs=60, seed=11)
        ds.chanspec = chan20
        with pytest.raises(CalibrationError):
            calibrate(ds)

    def test_low_confidence_on_noise_only_data(self, square_geom, chan80, rng):
        # frames of pure noise share no dominant component: gap below 3
        traj = disc_trajectory(np.array([0.0, 0.0]), 5.0, 60, seed=14)
        pairs = []
        for ts, pose in traj:
            csi = 0.1 * (rng.standard_normal((4, 1, 234))
                         + 1j * rng.standard_normal((4, 1, 234)))
            pairs.append((pose, CsiFrame(csi=csi.astype(np.complex64), rssi_dbm=-80,
                                         source_mac=b"\x00" * 6, seq=0,
                                         chanspec=chan80, timestamp_ns=ts)))
        ds = CalibrationDataset(pairs=pairs, tx_location=np.array([0.0, 0.0]),
                                geom=square_geom, chanspec=chan80)
        with pytest.raises(LowConfidenceError):
            calibrate(ds)

    def test_gauge_invariance_of_downstream_use(self, square_geom, chan80):
        # adding one constant to every element of the correction changes
        # nothing the estimators can see
        truth = random_bias(chan80, 4, seed=44)
        ds = make_dataset(chan80, square_geom, n_pairs=80, bias=truth, seed=44)
        result = calibrate(ds)
        shifted = CalibrationMatrix(phase=result.matrix.phase + 0.37, chanspec=chan80)
        frame = ds.pairs[0][1]
        a = apply_calibration(result.matrix, frame).csi
        b = apply_calibration(shifted, frame).csi
        ratio_a = a[1:, 0, :] / a[0:1, 0, :]
        ratio_b = b[1:, 0, :] / b[0:1, 0, :]
        assert np.allclose(ratio_a, ratio_b, atol=1e-4)


class TestCalibrationFile:
    def test_save_load_round_trip(self, tmp_path, square_geom, chan80, rng):
        phase = rng.uniform(-np.pi, np.pi, (4, 234))
        cal = CalibrationMatrix(phase=phase, chanspec=chan80)
        path = tmp_path / "cal.txt"
        save_calibration(path, cal, square_geom)
        loaded, geom = load_calibration(path)
        assert loaded.chanspec == chan80
        assert np.allclose(loaded.phase, phase, atol=1e-8)
        assert np.allclose(geom.positions, square_geom.positions)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("channel = 155\n\n1,2,3\n")
        with pytest.raises(CalibrationError):
            load_calibration(path)


class TestParseGeometry:
    def test_round_trip_of_valid_text(self):
        geom = parse_geometry("0,0; 0.02,0; 0.02,0.02")
        assert np.allclose(geom.positions, [[0, 0], [0.02, 0], [0.02, 0.02]])

    @pytest.mark.parametrize("text,chunk", [
        ("0,0; x,1", "x,1"),
        ("0,0; 1", "1"),
        ("0,0; 1,2,3", "1,2,3"),
        ("0,0;", ""),
        ("0,0; nan,1", "nan,1"),
    ])
    def test_bad_chunk_named_in_calibration_error(self, text, chunk):
        with pytest.raises(CalibrationError, match=f'bad point "{chunk}"'):
            parse_geometry(text)


class TestMultiTxSlicing:
    def test_suppression_uses_selected_tx_slice(self, square_geom, chan80):
        # multi-tx frames are sliced; the chosen slice drives suppression
        pose = Pose2D(2.0, -1.0, 0.4)
        aod = 0.8
        frame = synth_frame(
            [PathComponent(aoa=0.0, aod=aod, delay_s=0.0)],
            square_geom, chan80, tx_geom=square_geom,
        )
        assert frame.n_tx == 4
        sup0 = suppress_bearing(frame, pose, (0, 0), square_geom, tx_index=0)
        sup2 = suppress_bearing(frame, pose, (0, 0), square_geom, tx_index=2)
        # slices differ only by the tx antenna's departure phase: a
        # global rotation of the suppressed matrix
        ratio = sup2 / sup0
        assert np.allclose(ratio, ratio.flat[0], atol=1e-4)


class TestOtherBandwidths:
    @pytest.mark.parametrize("channel,bw", [(36, 20), (38, 40)])
    def test_recovery_at_narrow_bandwidths(self, channel, bw):
        chan = ChannelSpec(channel, bw)
        from csisense import wavelength

        geom = ArrayGeometry.square(0.45 * wavelength(chan))
        truth = random_bias(chan, 4, seed=50 + bw)
        ds = make_dataset(chan, geom, n_pairs=80, bias=truth, seed=50 + bw)
        result = calibrate(ds)
        est_bias_diff = -result.matrix.phase
        true_diff = truth.phase - truth.phase[0:1, :]
        err = np.abs(wrap_angle(est_bias_diff[1:] - true_diff[1:]))
        assert np.degrees(np.median(err)) < 2.0
        assert result.spectral_gap >= 3.0
