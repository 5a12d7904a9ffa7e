import copy

import numpy as np
import pytest

from csisense import (
    ApSpec,
    ChannelSpec,
    ConfigurationError,
    Pose2D,
    SimScenario,
    rssi_at,
)
from csisense.scanner import (
    ApRecord,
    Rescan,
    ScanPolicy,
    ScannerError,
    ScannerState,
    Stay,
    Switch,
    run_walkthrough,
    scan_all,
    step,
    write_walkthrough_csv,
)
from csisense.scenario import loop_trajectory
from csisense.synth import environment_beacons

CH = [ChannelSpec(c, 80) for c in (42, 58, 106, 122)]
MACS = [bytes([2, 0, 0, 0, 9, k]) for k in range(6)]


def corridor_aps():
    return [ApSpec(location=np.array([15.0 + 22.5 * k, 2.0]), chanspec=CH[k],
                   tx_power_dbm=-30.0, mac=MACS[k]) for k in range(4)]


class TestScanPolicy:
    def test_switch_cost_budget_enforced(self):
        with pytest.raises(ConfigurationError):
            ScanPolicy(switch_cost_ms=600)

    def test_defaults_valid(self):
        ScanPolicy()


class TestScanAll:
    def test_records_sorted_nearest_first(self):
        aps = corridor_aps()
        obs = environment_beacons(aps, np.array([20.0, 2.0]))
        records, downtime = scan_all(obs, ScanPolicy(), now_ns=0)
        assert len(records) == 4
        assert records[0].mac == aps[0].mac  # 5 m away, strongest
        rssis = [r.last_rssi_dbm for r in records]
        assert rssis == sorted(rssis, reverse=True)
        assert downtime == 4 * 100 * 1_000_000

    def test_empty_environment_rejected(self):
        with pytest.raises(ConfigurationError):
            scan_all({}, ScanPolicy(), now_ns=0)

    def test_two_aps_on_one_channel_recorded_per_mac(self):
        obs = {CH[0]: [(MACS[0], -40.0), (MACS[1], -50.0)]}
        records, _ = scan_all(obs, ScanPolicy(), now_ns=0)
        assert {r.mac for r in records} == {MACS[0], MACS[1]}


def fresh_state(now_ns=0):
    records = {
        MACS[0]: ApRecord(MACS[0], CH[0], -40.0, now_ns),
        MACS[1]: ApRecord(MACS[1], CH[1], -50.0, now_ns),
    }
    return ScannerState(current_chanspec=CH[0], records=records, last_scan_ns=now_ns)


class TestStep:
    def test_below_margin_stays(self):
        state = fresh_state()
        # other AP better by 3 dB only
        state.records[MACS[1]].last_rssi_dbm = -37.0
        assert step(state, [(MACS[0], -40.0)], ScanPolicy(), now_ns=1_000_000_000) == Stay()

    def test_above_margin_switches(self):
        state = fresh_state()
        state.records[MACS[1]].last_rssi_dbm = -30.0  # better by 10 dB
        action = step(state, [(MACS[0], -40.0)], ScanPolicy(), now_ns=1_000_000_000)
        assert action == Switch(CH[1])

    def test_scan_period_triggers_rescan(self):
        state = fresh_state()
        action = step(state, [(MACS[0], -40.0)], ScanPolicy(scan_period_s=30.0),
                      now_ns=31 * 10**9)
        assert action == Rescan()

    def test_stale_current_without_alternatives_rescans(self):
        state = ScannerState(
            current_chanspec=CH[0],
            records={MACS[0]: ApRecord(MACS[0], CH[0], -40.0, 0)},
            last_scan_ns=125 * 10**9,  # scan period not yet elapsed
        )
        action = step(state, [], ScanPolicy(stale_timeout_s=120.0), now_ns=130 * 10**9)
        assert action == Rescan()

    def test_stale_current_with_fresh_alternative_switches(self):
        now = 130 * 10**9
        state = ScannerState(
            current_chanspec=CH[0],
            records={
                MACS[0]: ApRecord(MACS[0], CH[0], -40.0, 0),        # stale
                MACS[1]: ApRecord(MACS[1], CH[1], -55.0, now - 1),  # fresh
            },
            last_scan_ns=now - 10**9,
        )
        assert step(state, [], ScanPolicy(), now_ns=now) == Switch(CH[1])

    def test_deterministic(self):
        policy = ScanPolicy()
        a = step(copy.deepcopy(fresh_state()), [(MACS[0], -42.0)], policy, 5 * 10**9)
        b = step(copy.deepcopy(fresh_state()), [(MACS[0], -42.0)], policy, 5 * 10**9)
        assert a == b


class TestWalkthrough:
    def make_scenario(self, n=4800, laps=2):
        return SimScenario(
            tx_location=np.array([0.0, 0.0]),
            chanspec=CH[0],
            trajectory=loop_trajectory(0.0, 0.0, 90.0, 4.0, laps=laps, n=n),
            aps=corridor_aps(),
            snr_db=None,
            seed=1,
        )

    def test_tracks_nearest_ap(self):
        result = run_walkthrough(self.make_scenario(), ScanPolicy())
        assert result.fraction_tuned_to_nearest >= 0.9
        assert result.switch_count >= 4  # passes 4 APs twice

    def test_downtime_accounting_exact(self):
        policy = ScanPolicy()
        result = run_walkthrough(self.make_scenario(n=1200, laps=1), policy)
        expected = (result.switch_count * policy.switch_cost_ms
                    + result.scan_count * 4 * policy.dwell_ms) * 1_000_000
        assert result.downtime_ns == expected
        assert policy.switch_cost_ms <= 500

    def test_stationary_robot_never_switches(self):
        traj = [(int(k * 1e9), Pose2D(10.0, 0.0, 0.0)) for k in range(1, 2001)]
        scen = SimScenario(tx_location=np.array([0.0, 0.0]), chanspec=CH[0],
                           trajectory=traj, aps=corridor_aps(), snr_db=None, seed=2)
        result = run_walkthrough(scen, ScanPolicy())
        assert result.switch_count == 0

    def test_equal_strength_aps_never_oscillate(self):
        aps = [ApSpec(location=np.array([0.0, 5.0]), chanspec=CH[0],
                      tx_power_dbm=-30.0, mac=MACS[0]),
               ApSpec(location=np.array([0.0, -5.0]), chanspec=CH[1],
                      tx_power_dbm=-30.0, mac=MACS[1])]
        traj = [(int(k * 1e9), Pose2D(0.0, 0.0, 0.0)) for k in range(1, 10001)]
        scen = SimScenario(tx_location=np.array([1.0, 0.0]), chanspec=CH[0],
                           trajectory=traj, aps=aps, snr_db=None, seed=3)
        result = run_walkthrough(scen, ScanPolicy())
        assert result.switch_count == 0

    def test_nearest_tie_goes_to_earliest_ap_across_interleaved_channels(self):
        # aps 1 and 2 are equally near; the beacons list ap 2 under CH[0]
        # with ap 0, ahead of ap 1 under CH[1], so only scenario order
        # makes ap 1 the nearest
        aps = [ApSpec(location=np.array([0.0, 40.0]), chanspec=CH[0],
                      tx_power_dbm=-30.0, mac=MACS[0]),
               ApSpec(location=np.array([5.0, 0.0]), chanspec=CH[1],
                      tx_power_dbm=-30.0, mac=MACS[1]),
               ApSpec(location=np.array([-5.0, 0.0]), chanspec=CH[0],
                      tx_power_dbm=-30.0, mac=MACS[2])]
        traj = [(int(k * 1e9), Pose2D(0.0, 0.0, 0.0)) for k in range(1, 4)]
        scen = SimScenario(tx_location=np.array([1.0, 0.0]), chanspec=CH[0],
                           trajectory=traj, aps=aps, snr_db=None, seed=5)
        assert list(environment_beacons(aps, np.zeros(2))) == [CH[0], CH[1]]
        result = run_walkthrough(scen, ScanPolicy())
        assert [e.nearest for e in result.log] == [CH[1]] * 3
        assert all(e.rssi_dbm == rssi_at(-30.0, 5.0) for e in result.log)

    def test_needs_two_channels(self):
        aps = [ApSpec(location=np.array([0.0, 5.0]), chanspec=CH[0],
                      tx_power_dbm=-30.0, mac=MACS[0])]
        scen = SimScenario(tx_location=np.array([0.0, 0.0]), chanspec=CH[0],
                           trajectory=loop_trajectory(0, 0, 10, 5, 1, 100),
                           aps=aps, snr_db=None, seed=4)
        with pytest.raises(ScannerError):
            run_walkthrough(scen, ScanPolicy())

    def test_csv_log_format(self, tmp_path):
        result = run_walkthrough(self.make_scenario(n=300, laps=1), ScanPolicy())
        path = tmp_path / "walk.csv"
        write_walkthrough_csv(path, result)
        lines = path.read_text().splitlines()
        assert lines[0] == "time_s,x,y,tuned_channel,nearest_channel,rssi_dbm,action"
        assert len(lines) == 301
