"""Control-plane logic: AP scanning and automated channel switching.

The scanner keeps a table of observed access points and decides, from
the policy and the table alone, whether to stay on the current channel,
switch to a better one, or trigger a full scan.  Decision precedence
(documented because it is the whole contract):

1. Rescan when the scan period has elapsed.
2. If the current channel's AP is unknown or stale: switch to the best
   fresh record on another channel, or rescan when none exists.
3. Switch when the best other-channel AP beats the current one by at
   least the hysteresis margin.
4. Otherwise stay.

All time is explicit (nanoseconds of simulated time); nothing reads the
wall clock, so every run is replayable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import ChannelSpec, ConfigurationError, CsiSenseError, Pose2D, _pose_arrays
from .synth import SimScenario, _beacon_rssi


class ScannerError(CsiSenseError):
    pass


@dataclass
class ApRecord:
    """Last known state of one access point, keyed by MAC."""

    mac: bytes
    chanspec: ChannelSpec
    last_rssi_dbm: float
    last_seen_ns: int


# The longest scan period and stale timeout (in nanoseconds, each fits an
# int64) and the longest dwell per channel: wide of any real scanner.
MAX_PERIOD_S = 1e9
MAX_DWELL_MS = 60_000


@dataclass(frozen=True)
class ScanPolicy:
    """Timing and hysteresis constants for the scanner; the CLI's [setup] keys."""

    scan_period_s: float = 30.0
    dwell_ms: int = 100
    switch_margin_db: float = 6.0
    switch_cost_ms: int = 400
    stale_timeout_s: float = 120.0

    def __post_init__(self):
        values = (self.scan_period_s, self.dwell_ms, self.switch_margin_db,
                  self.switch_cost_ms, self.stale_timeout_s)
        # an int is finite, and math.isfinite cannot take one past float range
        if not all(isinstance(v, int) or math.isfinite(v) for v in values):
            raise ConfigurationError("scan policy values must be finite")
        for name, bound in (("scan_period_s", MAX_PERIOD_S), ("stale_timeout_s", MAX_PERIOD_S),
                            ("dwell_ms", MAX_DWELL_MS)):
            value = getattr(self, name)
            if value > bound:
                raise ConfigurationError(f"{name} must be at most {bound:g}, got {value}")
        if not (0 < self.switch_cost_ms < 500):
            raise ConfigurationError("switch cost must be positive and under 500 ms")
        if min(self.scan_period_s, self.dwell_ms, self.switch_margin_db,
               self.stale_timeout_s) <= 0:
            raise ConfigurationError("all scan policy values must be positive")


@dataclass(frozen=True)
class Stay:
    pass


@dataclass(frozen=True)
class Switch:
    chanspec: ChannelSpec


@dataclass(frozen=True)
class Rescan:
    pass


Action = Stay | Switch | Rescan


@dataclass
class ScannerState:
    current_chanspec: ChannelSpec
    records: dict[bytes, ApRecord] = field(default_factory=dict)
    last_scan_ns: int = 0


def scan_all(
    observations: dict[ChannelSpec, list[tuple[bytes, float]]],
    policy: ScanPolicy,
    now_ns: int,
) -> tuple[list[ApRecord], int]:
    """Visit every channel for dwell_ms each; returns (records, downtime_ns).

    Records the strongest beacon per MAC, stamped at scan completion,
    sorted by RSSI descending.  Downtime is channels * dwell_ms.
    """
    if not observations:
        raise ConfigurationError("channel list must be non-empty")
    downtime_ns = len(observations) * policy.dwell_ms * 1_000_000
    done_ns = now_ns + downtime_ns
    best: dict[bytes, ApRecord] = {}
    for chanspec, beacons in observations.items():
        for mac, rssi in beacons:
            seen = best.get(mac)
            if seen is None or rssi > seen.last_rssi_dbm:
                best[mac] = ApRecord(mac=mac, chanspec=chanspec,
                                     last_rssi_dbm=rssi, last_seen_ns=done_ns)
    records = sorted(best.values(), key=lambda r: -r.last_rssi_dbm)
    return records, downtime_ns


def step(
    state: ScannerState,
    observation: list[tuple[bytes, float]],
    policy: ScanPolicy,
    now_ns: int,
) -> Action:
    """One decision: fold current-channel beacons in, then apply the rules.

    Deterministic given (state, observation, policy, now); the record
    table is updated in place.
    """
    for mac, rssi in observation:
        state.records[mac] = ApRecord(mac=mac, chanspec=state.current_chanspec,
                                      last_rssi_dbm=rssi, last_seen_ns=now_ns)

    if now_ns - state.last_scan_ns >= int(policy.scan_period_s * 1e9):
        return Rescan()

    # one pass; as in max(), only a strictly greater RSSI replaces a kept record
    stale_ns = int(policy.stale_timeout_s * 1e9)
    current = other = None
    for r in state.records.values():
        if now_ns - r.last_seen_ns <= stale_ns:
            if r.chanspec == state.current_chanspec:
                if current is None or r.last_rssi_dbm > current.last_rssi_dbm:
                    current = r
            elif other is None or r.last_rssi_dbm > other.last_rssi_dbm:
                other = r

    if current is None:
        return Rescan() if other is None else Switch(other.chanspec)
    if other is not None and other.last_rssi_dbm >= current.last_rssi_dbm + policy.switch_margin_db:
        return Switch(other.chanspec)
    return Stay()


@dataclass
class WalkthroughEntry:
    time_s: float
    pose: Pose2D
    tuned: ChannelSpec
    nearest: ChannelSpec
    rssi_dbm: float
    action: str


@dataclass
class WalkthroughResult:
    log: list[WalkthroughEntry]
    switch_count: int
    scan_count: int
    downtime_ns: int
    fraction_tuned_to_nearest: float
    transition_steps: int


def run_walkthrough(scenario: SimScenario, policy: ScanPolicy) -> WalkthroughResult:
    """Drive the scanner along a trajectory through a multi-AP environment.

    Performs an initial scan, then steps the state machine once per
    trajectory pose, paying the configured downtime for each scan and
    switch.  A step counts as a hysteresis transition (and is excluded
    from the tuned-to-nearest fraction) when the nearest AP differs from
    the tuned one but does not yet beat it by the switch margin.

    Every beacon level the walk hears is computed up front, as one
    (poses x APs) RSSI matrix (`synth._beacon_rssi`); a step reads its
    row.  The nearest AP is the strongest in the row, the earliest in
    `scenario.aps` on ties.  One table, built once, maps each channel (in
    order of first appearance) to its APs' indices; steps, sweeps and the
    tuned RSSI read it.
    """
    aps = scenario.aps
    channels: dict[ChannelSpec, list[int]] = {}
    for i, ap in enumerate(aps):
        channels.setdefault(ap.chanspec, []).append(i)
    if len(channels) < 2:
        raise ScannerError("walkthrough needs at least 2 APs on distinct channels")
    positions, _heading = _pose_arrays(pose for _, pose in scenario.trajectory)
    levels = _beacon_rssi(aps, positions, scenario.path_loss_exponent)
    nearest = np.argmax(levels, axis=1).tolist()  # first maximum: the earliest AP on ties

    def beacons(row, chanspec):
        return [(aps[i].mac, row[i]) for i in channels[chanspec]]

    def sweep(row):
        return {chanspec: beacons(row, chanspec) for chanspec in channels}

    rssi = levels.tolist()
    t0 = scenario.trajectory[0][0]
    records, downtime_ns = scan_all(sweep(rssi[0]), policy, t0)
    state = ScannerState(current_chanspec=records[0].chanspec,
                         records={r.mac: r for r in records},
                         last_scan_ns=t0)
    switch_count = 0
    scan_count = 1

    log: list[WalkthroughEntry] = []
    matched = 0
    transitions = 0
    for k, ((ts, pose), row) in enumerate(zip(scenario.trajectory, rssi)):
        action = step(state, beacons(row, state.current_chanspec), policy, ts)
        label = "stay"
        if isinstance(action, Rescan):
            records, dt = scan_all(sweep(row), policy, ts)
            state.records = {r.mac: r for r in records}
            state.last_scan_ns = ts
            downtime_ns += dt
            scan_count += 1
            action = step(state, [], policy, ts)
            label = "rescan"
        if isinstance(action, Switch):
            state.current_chanspec = action.chanspec
            downtime_ns += policy.switch_cost_ms * 1_000_000
            switch_count += 1
            label = "switch" if label == "stay" else "rescan+switch"

        nearest_ap = aps[nearest[k]]
        tuned_rssi = max(row[i] for i in channels[state.current_chanspec])
        entry = WalkthroughEntry(
            time_s=ts / 1e9, pose=pose, tuned=state.current_chanspec,
            nearest=nearest_ap.chanspec, rssi_dbm=tuned_rssi, action=label,
        )
        log.append(entry)
        if entry.tuned == entry.nearest:
            matched += 1
        elif row[nearest[k]] - tuned_rssi < policy.switch_margin_db:
            transitions += 1

    denom = max(len(log) - transitions, 1)
    return WalkthroughResult(
        log=log,
        switch_count=switch_count,
        scan_count=scan_count,
        downtime_ns=downtime_ns,
        fraction_tuned_to_nearest=matched / denom,
        transition_steps=transitions,
    )


def write_walkthrough_csv(path, result: WalkthroughResult) -> None:
    """Walkthrough log: time_s, x, y, tuned_channel, nearest_channel, rssi_dbm, action."""
    with open(path, "w") as fh:
        fh.write("time_s,x,y,tuned_channel,nearest_channel,rssi_dbm,action\n")
        for e in result.log:
            fh.write(
                f"{e.time_s:.3f},{e.pose.x:.3f},{e.pose.y:.3f},"
                f"{e.tuned.channel_number},{e.nearest.channel_number},"
                f"{e.rssi_dbm:.2f},{e.action}\n"
            )
