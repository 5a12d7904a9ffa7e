"""The benchmark's workloads: seeded input generation, CLI passes, checks.

Every input is generated from the benchmark seed: pose files come from
the benchmark's own random generator, scenario files are written here,
and the package's simulator renders them into captures.  A pass is the
list of CLI calls one user action makes; the runner times each call.

Why these four (each stresses a different layer, and each optimisation
of one layer has a workload that bypasses it and should not move):

- replay-bartlett-sq80: real-time Bartlett estimator with window
  averaging; `aoa.bartlett_profile` is most of the time.
- replay-spotfi-ula80: SpotFi's 244x244 smoothed covariance and its
  eigendecomposition; nothing else costs anything.
- ingest-music-sq20: a 4-source capture filtered to one source; decode,
  filtering, calibration and the CLI loop carry the time, MUSIC little.
- survey-sq80: simulate -> calibrate -> scan; the only workload that
  runs `synth`, `calibration` and `scanner`, and no `aoa` work.
"""

from __future__ import annotations

import contextlib
import io
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from scoring import bearing_errors_deg, calibration_errors_deg

# One reflection 14 dB down, 90 degrees off the direct path and 9 m longer,
# so the 80 MHz range axis separates it from the direct path.
REFLECTION = {"aoa_offset_deg": 90, "excess_delay_ns": 30, "rel_amplitude": 0.2,
              "random_phase": "true"}
RATE_HZ = 100.0  # packet rate of the replayed captures
WORST_ERR_DEG = 180.0  # reported when there is nothing to score


@dataclass
class Step:
    """One CLI call of a pass."""

    command: str  # subcommand name, for reporting
    argv: list[str]
    frames_read: int  # capture frames the call reads (base of decodes per frame)
    outputs: list[str]  # files whose bytes must repeat on every pass


@dataclass
class Score:
    errors_deg: np.ndarray  # one ground-truth error per scored output value
    checks: list[tuple[str, bool, str]]  # (check, passed, detail)
    blamed: str  # subcommand whose calls fail when a check fails

    @property
    def mean_deg(self) -> float:
        return float(np.mean(self.errors_deg)) if self.errors_deg.size else WORST_ERR_DEG

    @property
    def median_deg(self) -> float:
        return float(np.median(self.errors_deg)) if self.errors_deg.size else WORST_ERR_DEG


@dataclass
class Workload:
    name: str
    why: str
    setup: Callable[[Path, int, bool], dict]  # (work dir, seed, tiny) -> metadata
    steps: Callable[[Path, dict], list[Step]]
    score: Callable[[Path, dict, dict[str, str]], Score]  # stdout per subcommand
    fps_command: str  # frames_per_s = capture frames / wall time of this call


# -- shared input generation ---------------------------------------------------

def _ini(sections: dict[str, dict]) -> str:
    out = []
    for name, keys in sections.items():
        out.append(f"[{name}]")
        out.extend(f"{k} = {v}" for k, v in keys.items())
        out.append("")
    return "\n".join(out)


def _scenario(chan: int, bw: int, tx, array: dict, trajectory: dict, seed: int,
              reflection: bool, mac: str = "02:00:00:00:00:01") -> str:
    sections = {
        "channel": {"channel": chan, "bandwidth": bw},
        "transmitter": {"x": repr(float(tx[0])), "y": repr(float(tx[1])), "power_dbm": -30},
        "array": array,
        "simulation": {"seed": seed, "snr_db": 30, "per_packet_phase": "true",
                       "bias": "random", "source_mac": mac},
        "trajectory": trajectory,
    }
    if reflection:
        sections["reflection.1"] = REFLECTION
    return _ini(sections)


def _write_poses(path: Path, stamps, xs, ys, headings_rad) -> None:
    with open(path, "w") as fh:
        fh.write("timestamp_ns,x,y,theta\n")
        for ts, x, y, h in zip(stamps, xs, ys, headings_rad):
            fh.write(f"{int(ts)},{x:.9g},{y:.9g},{np.degrees(h):.9g}\n")


def _turn_in_place(rng, n: int, tx, bearing_range_deg: float = 180.0,
                   step_deg: float = 0.1):
    """A robot 3 to 5 m from the transmitter turning step_deg per packet.

    The bearing starts within +-bearing_range_deg and drifts at one
    steady rate, so an 8-packet average lags the truth by the same
    3.5 * step_deg on every seed.  With n * step_deg a whole number, the
    bearings sweep evenly across the 1-degree grid instead of landing at
    random offsets from it, so the mean error does not depend on the seed.
    """
    r = rng.uniform(3.0, 5.0)
    phi = rng.uniform(-np.pi, np.pi)
    # ground_truth_bearing = pi/2 - (atan2(robot - tx) - heading), solved for heading
    bearing0 = np.radians(rng.uniform(-bearing_range_deg, bearing_range_deg))
    heading0 = bearing0 - np.pi / 2 + phi
    headings = heading0 + np.radians(step_deg) * np.arange(n)
    return ([tx[0] + r * np.cos(phi)] * n, [tx[1] + r * np.sin(phi)] * n, list(headings))


def _stamps(n: int, offset_ns: int = 0) -> list[int]:
    dt = int(round(1e9 / RATE_HZ))
    return [1_000_000_000 + k * dt + offset_ns for k in range(n)]


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Call the real entry point in-process; returns (code, stdout, stderr)."""
    from csisense import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _simulate(work: Path, stem: str, scenario_text: str, seed: int) -> None:
    (work / f"{stem}.ini").write_text(scenario_text)
    code, _out, err = run_cli(["--seed", str(seed), "simulate",
                               "--scenario", str(work / f"{stem}.ini"),
                               "--capture", str(work / f"{stem}.wcap"),
                               "--poses", str(work / f"{stem}.poses.csv")])
    if code != 0:
        raise RuntimeError(f"setup simulate {stem} exited {code}: {err.strip()}")


def _write_true_calibration(work: Path, stem: str, seed: int) -> None:
    """Calibration file holding the exact correction for the simulated bias.

    Unlike a file from `calibrate`, this one also removes the bias common
    to all antennas, so replayed frames keep the clean subcarrier phase
    structure that the range axis and SpotFi's smoothing rely on.
    """
    from csisense import CalibrationMatrix, load_scenario, save_calibration

    scenario, geom = load_scenario(str(work / f"{stem}.ini"), seed=seed)
    correction = np.mod(np.pi - scenario.true_calibration.phase, 2.0 * np.pi) - np.pi
    save_calibration(str(work / f"{stem}.cal"),
                     CalibrationMatrix(phase=correction, chanspec=scenario.chanspec), geom)


def _square_array(chan: int, bw: int) -> dict:
    from csisense import ChannelSpec, wavelength

    # 0.45 wavelength keeps the square array unambiguous over the full circle.
    return {"layout": "square",
            "spacing_m": repr(float(0.45 * wavelength(ChannelSpec(chan, bw))))}


def _tx(rng) -> list[float]:
    return [float(v) for v in rng.uniform(-2.0, 2.0, size=2)]


def _bearing_score(work: Path, meta: dict, y_axis_array=False, limit=None) -> Score:
    errors = bearing_errors_deg(work / meta["bearings"], work / meta["poses"], meta["tx"],
                                source_mac=meta.get("keep_mac"), y_axis_array=y_axis_array)
    score = Score(errors, [("bearings written", errors.size > 0, f"{errors.size} rows")],
                  "bearing")
    if limit is not None:
        med = score.median_deg
        score.checks.append((f"median bearing error < {limit} deg", med < limit,
                             f"{med:.4f} deg"))
    return score


# -- replay-bartlett-sq80 --------------------------------------------------------

def _replay_setup(work: Path, seed: int, n: int, array: dict, drive) -> dict:
    rng = np.random.default_rng([seed, 1])
    tx = _tx(rng)
    xs, ys, hs = drive(rng, n, tx)
    _write_poses(work / "drive.csv", _stamps(n), xs, ys, hs)
    text = _scenario(155, 80, tx, array, {"kind": "file", "file": str(work / "drive.csv")},
                     seed, reflection=True)
    _simulate(work, "replay", text, seed)
    _write_true_calibration(work, "replay", seed)
    return {"tx": tx, "frames": n, "capture": "replay.wcap", "poses": "replay.poses.csv",
            "calibration": "replay.cal", "bearings": "bearings.csv",
            "profile_index": int(rng.integers(0, n))}


def _bartlett_setup(work: Path, seed: int, tiny: bool) -> dict:
    return _replay_setup(work, seed, 8 if tiny else 60, _square_array(155, 80),
                         _turn_in_place)


def _bartlett_steps(work: Path, meta: dict) -> list[Step]:
    cap, cal = str(work / meta["capture"]), str(work / meta["calibration"])
    return [
        Step("bearing", ["bearing", "--capture", cap, "--calibration", cal,
                         "--out", str(work / meta["bearings"]),
                         "--algorithm", "bartlett", "--window", "8"],
             meta["frames"], [meta["bearings"]]),
        Step("profile", ["profile", "--capture", cap, "--calibration", cal,
                         "--index", str(meta["profile_index"]),
                         "--out", str(work / "profile.pgm")],
             meta["frames"], ["profile.pgm", "profile.pgm.txt"]),
    ]


# -- replay-spotfi-ula80 ----------------------------------------------------------

def _spotfi_setup(work: Path, seed: int, tiny: bool) -> dict:
    # Bearings start within 30 degrees of broadside: a linear array
    # resolves little near endfire, and the error should measure the
    # estimator, not the geometry.  SpotFi averages nothing, so the robot
    # may turn faster: 5 frames sweep one whole degree.
    array = {"layout": "linear-y", "count": 4, "spacing": "half-wavelength"}
    return _replay_setup(work, seed, 3 if tiny else 5, array,
                         lambda rng, n, tx: _turn_in_place(rng, n, tx, 30.0, 0.2))


def _spotfi_steps(work: Path, meta: dict) -> list[Step]:
    return [Step("bearing", ["bearing", "--capture", str(work / meta["capture"]),
                             "--calibration", str(work / meta["calibration"]),
                             "--out", str(work / meta["bearings"]), "--algorithm", "spotfi"],
                 meta["frames"], [meta["bearings"]])]


# -- ingest-music-sq20 ---------------------------------------------------------

N_SOURCES = 4


def _ingest_setup(work: Path, seed: int, tiny: bool) -> dict:
    from csisense import read_capture, write_capture

    rng = np.random.default_rng([seed, 3])
    n = 20 if tiny else 400  # frames per source
    keep = int(rng.integers(0, N_SOURCES))
    txs = [_tx(rng) for _ in range(N_SOURCES)]
    # The receiver wanders a 5 m disc around the kept transmitter, so the
    # kept source's RSSI spans about 20 dB and the floor bites on a tail.
    radius = 5.0 * np.sqrt(rng.uniform(0.01, 1.0, size=n))
    angle = rng.uniform(-np.pi, np.pi, size=n)
    xs = txs[keep][0] + radius * np.cos(angle)
    ys = txs[keep][1] + radius * np.sin(angle)
    hs = rng.uniform(-np.pi, np.pi, size=n)
    array = _square_array(36, 20)
    captures = []
    for j in range(N_SOURCES):
        stem = f"src{j}"
        dt_ns = int(round(1e9 / RATE_HZ))
        _write_poses(work / f"{stem}.drive.csv", _stamps(n, j * dt_ns // N_SOURCES), xs, ys, hs)
        text = _scenario(36, 20, txs[j], array,
                         {"kind": "file", "file": str(work / f"{stem}.drive.csv")},
                         seed + j, reflection=False, mac=f"02:00:00:00:00:{0x10 + j:02x}")
        _simulate(work, stem, text, seed + j)
        captures.append(read_capture(str(work / f"{stem}.wcap")))
    write_capture(str(work / "ingest.wcap"), [f for group in zip(*captures) for f in group])
    _write_true_calibration(work, f"src{keep}", seed + keep)

    # RSSI floor between integer dB levels (the wire rounds RSSI), placed
    # to drop the share of the kept source nearest one tenth.
    levels = np.sort([f.rssi_dbm for f in captures[keep]])
    candidates = np.unique(levels) + 0.5
    dropped = np.searchsorted(levels, candidates, side="right")
    floor = float(candidates[int(np.argmin(np.abs(dropped - 0.1 * n)))])
    return {"tx": txs[keep], "frames": n * N_SOURCES, "capture": "ingest.wcap",
            "poses": f"src{keep}.poses.csv", "calibration": f"src{keep}.cal",
            "bearings": "bearings.csv", "keep_mac": f"02:00:00:00:00:{0x10 + keep:02x}",
            "rssi_floor": floor}


def _ingest_steps(work: Path, meta: dict) -> list[Step]:
    cap = str(work / meta["capture"])
    filters = ["--mac-filter", meta["keep_mac"], "--rssi-floor", repr(meta["rssi_floor"])]
    return [
        Step("decode", ["decode", "--capture", cap, *filters, "--csv", str(work / "frames.csv")],
             meta["frames"], ["frames.csv"]),
        Step("bearing", ["bearing", "--capture", cap, "--calibration",
                         str(work / meta["calibration"]), "--out",
                         str(work / meta["bearings"]), "--algorithm", "music", *filters],
             meta["frames"], [meta["bearings"]]),
    ]


# -- survey-sq80 ---------------------------------------------------------------

def _survey_setup(work: Path, seed: int, tiny: bool) -> dict:
    from csisense import ArrayGeometry, ChannelSpec, wavelength
    from csisense.calibration import format_geometry

    rng = np.random.default_rng([seed, 4])
    tx = _tx(rng)
    n = 60 if tiny else 500
    (work / "survey.ini").write_text(_scenario(
        155, 80, tx, _square_array(155, 80),
        {"kind": "disc", "n": n, "radius_m": 5.0, "rate_hz": 10.0}, seed, reflection=False))
    corners = [(0, 0), (40, 0), (40, 10), (0, 10)]
    channels = [(36, 20), (52, 20), (100, 40), (149, 80)]
    aps = {}
    for k, ((cx, cy), (chan, bw)) in enumerate(zip(corners, channels)):
        jx, jy = rng.uniform(-3.0, 3.0, size=2)
        aps[f"ap.{k + 1}"] = {"x": repr(float(cx + jx)), "y": repr(float(cy + jy)),
                              "channel": chan, "bandwidth": bw, "power_dbm": -30}
    (work / "scan.ini").write_text(_ini({
        "channel": {"channel": 36, "bandwidth": 20},
        "transmitter": {"x": 0, "y": 0},
        "array": {"layout": "square"},
        "trajectory": {"kind": "loop", "n": 200 if tiny else 2000, "x0": 0, "y0": 0,
                       "length_m": 40, "width_m": 10, "laps": 3, "rate_hz": 10},
        **aps,
    }))
    chan = ChannelSpec(155, 80)
    geometry = format_geometry(ArrayGeometry.square(0.45 * wavelength(chan)))
    return {"tx": tx, "frames": n, "geometry": geometry, "seed": seed}


def _survey_steps(work: Path, meta: dict) -> list[Step]:
    cap, poses = str(work / "survey.wcap"), str(work / "survey.poses.csv")
    tx = f"{meta['tx'][0]!r},{meta['tx'][1]!r}"
    return [
        Step("simulate", ["--seed", str(meta["seed"]), "simulate", "--scenario",
                          str(work / "survey.ini"), "--capture", cap, "--poses", poses],
             0, ["survey.wcap", "survey.poses.csv"]),
        Step("calibrate", ["calibrate", "--capture", cap, "--poses", poses, f"--tx={tx}",
                           "--geometry", meta["geometry"], "--out", str(work / "survey.cal")],
             meta["frames"], ["survey.cal"]),
        Step("scan", ["--seed", str(meta["seed"]), "scan", "--scenario",
                      str(work / "scan.ini"), "--out", str(work / "walk.csv")],
             0, ["walk.csv"]),
    ]


def _survey_score(work: Path, meta: dict, stdout: dict[str, str]) -> Score:
    from csisense import load_calibration, load_scenario

    scenario, _geom = load_scenario(str(work / "survey.ini"), seed=meta["seed"])
    correction, _ = load_calibration(str(work / "survey.cal"))
    errors = calibration_errors_deg(correction.phase, scenario.true_calibration.phase)
    match = re.search(r"spectral_gap = (\S+)", stdout.get("calibrate", ""))
    gap = float(match.group(1)) if match else float("nan")
    med = float(np.median(errors))
    return Score(errors, [
        ("spectral gap >= 3", gap >= 3.0, f"{gap:.4g}"),
        ("median calibration error < 2 deg", med < 2.0, f"{med:.4f} deg"),
    ], "calibrate")


WORKLOADS = {w.name: w for w in (
    Workload("replay-bartlett-sq80",
             "real-time Bartlett bearings with window averaging; bartlett_profile dominates",
             _bartlett_setup, _bartlett_steps,
             lambda work, meta, _out: _bearing_score(work, meta, limit=1.0), "bearing"),
    Workload("replay-spotfi-ula80",
             "SpotFi on a ULA: the 244x244 covariance and its eigendecomposition dominate",
             _spotfi_setup, _spotfi_steps,
             lambda work, meta, _out: _bearing_score(work, meta, y_axis_array=True),
             "bearing"),
    Workload("ingest-music-sq20",
             "4-source capture filtered to one: decode, filter, calibration and CLI loop dominate",
             _ingest_setup, _ingest_steps,
             lambda work, meta, _out: _bearing_score(work, meta), "bearing"),
    Workload("survey-sq80",
             "simulate, calibrate, scan: the only synth, calibration and scanner work, no aoa",
             _survey_setup, _survey_steps, _survey_score, "calibrate"),
)}
