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

from dataclasses import dataclass, field

from .core import ChannelSpec, ConfigurationError, CsiSenseError, Pose2D
from .synth import SimScenario, environment_beacons


class ScannerError(CsiSenseError):
    pass


@dataclass
class ApRecord:
    """Last known state of one access point, keyed by MAC."""

    mac: bytes
    chanspec: ChannelSpec
    last_rssi_dbm: float
    last_seen_ns: int


@dataclass(frozen=True)
class ScanPolicy:
    """Timing and hysteresis constants for the scanner."""

    scan_period_s: float = 30.0
    dwell_ms: int = 100
    switch_margin_db: float = 6.0
    switch_cost_ms: int = 400
    stale_timeout_s: float = 120.0

    def __post_init__(self):
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

    stale_ns = int(policy.stale_timeout_s * 1e9)
    fresh = [r for r in state.records.values() if now_ns - r.last_seen_ns <= stale_ns]
    current = [r for r in fresh if r.chanspec == state.current_chanspec]
    others = [r for r in fresh if r.chanspec != state.current_chanspec]

    if not current:
        if others:
            return Switch(max(others, key=lambda r: r.last_rssi_dbm).chanspec)
        return Rescan()

    cur_best = max(current, key=lambda r: r.last_rssi_dbm)
    if others:
        other_best = max(others, key=lambda r: r.last_rssi_dbm)
        if other_best.last_rssi_dbm >= cur_best.last_rssi_dbm + policy.switch_margin_db:
            return Switch(other_best.chanspec)
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
    """
    aps = scenario.aps
    if len({ap.chanspec for ap in aps}) < 2:
        raise ScannerError("walkthrough needs at least 2 APs on distinct channels")
    exponent = scenario.path_loss_exponent
    t0, pose0 = scenario.trajectory[0]

    obs0 = environment_beacons(aps, pose0.position, exponent)
    records, downtime = scan_all(obs0, policy, t0)
    state = ScannerState(current_chanspec=records[0].chanspec,
                         records={r.mac: r for r in records},
                         last_scan_ns=t0)
    downtime_ns = downtime
    switch_count = 0
    scan_count = 1

    log: list[WalkthroughEntry] = []
    matched = 0
    transitions = 0
    for ts, pose in scenario.trajectory:
        env = environment_beacons(aps, pose.position, exponent)
        heard = env.get(state.current_chanspec, [])
        action = step(state, heard, policy, ts)
        label = "stay"
        if isinstance(action, Rescan):
            records, dt = scan_all(env, policy, ts)
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

        # env lists each channel's APs in scenario order, so this pairs every
        # AP with its own beacon; max keeps the earliest AP on ties.
        beacons = {chanspec: iter(heard) for chanspec, heard in env.items()}
        ap_rssi = [next(beacons[ap.chanspec])[1] for ap in aps]
        nearest_rssi, nearest_ap = max(zip(ap_rssi, aps), key=lambda pair: pair[0])
        tuned_rssi = max((rssi for _mac, rssi in env.get(state.current_chanspec, [])),
                         default=float("-inf"))
        entry = WalkthroughEntry(
            time_s=ts / 1e9, pose=pose, tuned=state.current_chanspec,
            nearest=nearest_ap.chanspec, rssi_dbm=tuned_rssi, action=label,
        )
        log.append(entry)
        if entry.tuned == entry.nearest:
            matched += 1
        elif nearest_rssi - tuned_rssi < policy.switch_margin_db:
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
