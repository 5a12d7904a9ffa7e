"""Byte-identity harness: hash every output of a fixed set of seeded CLI calls.

    python tools/golden.py --out DIR [--root TREE] [--seeds 1,2,3,7,101] [--tiny]
    python tools/golden.py --compare A B

`--out` imports the package from TREE/src (default: this checkout) and
the benchmark's workloads from this checkout's perfbench/, runs the calls
below in-process, and writes DIR/manifest.json: the sha256 of every file
each call writes or changes, of its stdout and stderr, and its exit code.
Each call runs in a fresh temporary work directory, which is replaced by
`<work>` before hashing, inside file contents too, so runs in different
places compare equal.  The CSVs, stdouts and stderrs are also kept under
DIR/files, so that `--compare` can show the rows that differ.

The calls, per seed:
- every workload's set-up (each file it writes and its metadata) and one
  pass;
- `decode` on the ingest workload's capture, with and without its filters;
- `bearing` with Bartlett and MUSIC at windows 1, 4 and 8 on the Bartlett
  workload's capture and, filtered, on the ingest capture, and with all
  three algorithms at the same windows on the ULA capture, where rounding
  picks between a bearing and its mirror;
- `decode`, and `profile` of frames 7 and 2, on fault captures made from
  the first 40 records of the ingest capture: intact, cut inside frame
  5's length prefix, with capture version 2, cut to 10 bytes, and with
  frame 7's magic overwritten;
- a stream set: `decode --udp` and, filtered, `bearing --udp` with
  Bartlett and MUSIC at windows 1 and 4, each fed the same 40 records as
  datagrams, with one undecodable datagram (record 5 cut short) after
  record 5.  `csisense.cli.udp_datagrams` is replaced for the call by an
  iterator over them, so no socket is opened and the set is
  deterministic;
- `calibrate` on variants of the survey workload's capture and poses: a
  missing pose, a record on a foreign channel, the two together (the
  pose missing after the foreign record), `--min-pairs` above the frame
  count, `--tx-antenna 1` and all-zero csi, so that each error line is
  compared;
- `scan` on variants of the survey workload's walk that reach every
  branch of the scanner: with `scan_period_s = 5` (a rescan every 50
  poses), with `switch_margin_db` 0.5 and 20, with a fifth AP on a channel
  that already has one, with two equal-strength APs on new channels
  placed symmetrically about the walk's x = 0 side (every pose on it is
  an exact tie), and with a robot that stands still;
- `simulate` on scenarios that reach every branch of the simulator, each
  with two reflections, one of them with `random_phase = false`: as they
  are, with `snr_db = none`, with `per_packet_phase = false`, with
  `bias = zero`, and on loop and line trajectories with a `linear-x`
  array.

`--compare A B` lists the entries that differ between two such
directories and, for the kept text entries, the rows that differ.  It
exits 1 if anything differs.  To compare with another commit, run `--out`
with `--root` on a `git archive` of that commit.  The bytes depend on
numpy, BLAS and the CPU, so no hashes are checked in: compare two runs
made on one host.  Both run with one BLAS thread.
"""

from __future__ import annotations

import argparse
import configparser
import difflib
import hashlib
import json
import os
import shutil
import struct
import sys
import tempfile
from pathlib import Path

# One BLAS thread, set before numpy loads BLAS, as the benchmark sets it:
# SpotFi's bearings on the ULA capture differ in some rows between one and
# two OpenBLAS threads, and a manifest must not depend on the thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

REPO = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3, 7, 101)
WINDOWS = (1, 4, 8)
STREAM_WINDOWS = (1, 4)
TEXT_SUFFIXES = (".csv", "/stdout", "/stderr")
# The simulate call set: a base scenario and, per call, the sections it replaces.
SIMULATION = {"snr_db": 30, "per_packet_phase": "true", "bias": "random"}
SIM_BASE = {
    "channel": {"channel": 155, "bandwidth": 80},
    "transmitter": {"x": 3.0, "y": 4.0, "power_dbm": -30},
    "array": {"layout": "square", "spacing_m": 0.0233},
    "simulation": SIMULATION,
    "trajectory": {"kind": "disc", "radius_m": 5.0},
    "reflection.1": {"aoa_offset_deg": 40, "excess_delay_ns": 25, "rel_amplitude": 0.5},
    "reflection.2": {"aoa_offset_deg": -70, "excess_delay_ns": 60, "rel_amplitude": -0.3,
                     "random_phase": "false"},
}
LINEAR_X = {"layout": "linear-x", "count": 3, "spacing": "half-wavelength"}
SIM_CALLS = {
    "reflections": {},
    "noiseless": {"simulation": {**SIMULATION, "snr_db": "none"}},
    "fixed-phase": {"simulation": {**SIMULATION, "per_packet_phase": "false"}},
    "zero-bias": {"simulation": {**SIMULATION, "bias": "zero"}},
    "loop-linear-x": {"array": LINEAR_X, "trajectory": {"kind": "loop", "length_m": 8.0}},
    "line-linear-x": {"array": LINEAR_X, "trajectory": {"kind": "line", "y0": -1.0}},
}
# The scan call set, on the survey workload's walk: per call, the [setup]
# keys of its config and the scenario sections it adds or replaces.
SCAN_CALLS = {
    "rescan-5s": ({"scan_period_s": 5}, {}),
    "margin-0.5": ({"switch_margin_db": 0.5}, {}),
    "margin-20": ({"switch_margin_db": 20}, {}),
    "shared-channel": ({}, {"ap.5": {"x": 20, "y": 5, "channel": 52, "bandwidth": 20}}),
    "tie": ({}, {"ap.5": {"x": -1, "y": 5, "channel": 60, "bandwidth": 20},
                 "ap.6": {"x": 1, "y": 5, "channel": 64, "bandwidth": 20}}),
    "still": ({}, {"trajectory": {"kind": "line", "x0": 12, "y0": 3, "x1": 12, "y1": 3,
                                  "rate_hz": 10}}),
}
MAX_ROWS_SHOWN = 20  # differing rows shown per entry


def _hash(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _bearing(work: Path, label: str, capture: str, calibration: str, algorithms,
             filters=()) -> list[tuple[str, list[str]]]:
    return [(f"{label}-{algorithm}-w{window}",
             ["bearing", "--capture", str(work / capture), "--calibration",
              str(work / calibration), "--algorithm", algorithm, "--window", str(window),
              *filters, "--out", str(work / f"{label}-{algorithm}-w{window}.csv")])
            for algorithm in algorithms for window in WINDOWS]


def _record_starts(raw: bytes, count: int) -> list[int]:
    """The offsets of the length prefixes of a capture's first `count` records,
    and the offset after the last of them."""
    starts = [16]
    for _ in range(count):
        starts.append(starts[-1] + 4 + struct.unpack_from("<I", raw, starts[-1])[0])
    return starts


def _fault_captures(work: Path, capture: str) -> list[str]:
    """Write the fault captures of the first 40 records of `capture`; their names."""
    raw = (work / capture).read_bytes()
    magic, version, _ = struct.unpack_from("<4sIQ", raw)
    *starts, at = _record_starts(raw, 40)
    clean = struct.pack("<4sIQ", magic, version, 40) + raw[16:at]
    magic7 = bytearray(clean)
    magic7[starts[7] + 4:starts[7] + 8] = b"XXXX"
    faults = {"intact": clean, "cut": clean[:starts[5] + 2],
              "version2": struct.pack("<4sIQ", magic, 2, 40) + clean[16:],
              "short": clean[:10], "magic7": bytes(magic7)}
    for name, data in faults.items():
        (work / f"fault-{name}.wcap").write_bytes(data)
    return list(faults)


def _stream_calls(work: Path, meta: dict) -> tuple[list[bytes], list[tuple[str, list[str]]]]:
    """The stream call set on the ingest capture: its datagrams and its calls."""
    raw = (work / meta["capture"]).read_bytes()
    starts = _record_starts(raw, 40)
    records = [raw[a + 4:b] for a, b in zip(starts, starts[1:])]
    datagrams = records[:6] + [records[5][:40]] + records[6:]
    filters = ["--mac-filter", meta["keep_mac"], "--rssi-floor", repr(meta["rssi_floor"])]
    calls = [("stream-decode", ["decode", "--udp", "0"])]
    calls += [(f"stream-{algorithm}-w{window}",
               ["bearing", "--udp", "0", "--calibration", str(work / meta["calibration"]),
                "--algorithm", algorithm, "--window", str(window), *filters,
                "--out", str(work / f"stream-{algorithm}-w{window}.csv")])
              for algorithm in ("bartlett", "music") for window in STREAM_WINDOWS]
    return datagrams, calls


def _streaming(run_cli, datagrams: list[bytes]):
    """`run_cli` with `csisense.cli.udp_datagrams` yielding `datagrams` for the call."""
    from csisense import cli

    def run(argv: list[str]) -> tuple[int, str, str]:
        listen = cli.udp_datagrams
        cli.udp_datagrams = lambda **_: iter(datagrams)
        try:
            return run_cli(argv)
        finally:
            cli.udp_datagrams = listen
    return run


def _write_ini(path: Path, sections: dict[str, dict]) -> None:
    path.write_text("".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items()) + "\n"
        for name, keys in sections.items()))


def _scan_calls(work: Path, meta: dict) -> list[tuple[str, list[str]]]:
    """Write the scan call set's scenarios and configs to `work`; its calls."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(work / "scan.ini")
    base = {name: dict(parser[name]) for name in parser.sections()}
    calls = []
    for label, (setup, changes) in SCAN_CALLS.items():
        sections = {**base, **changes}
        if "trajectory" in changes:  # the same number of poses
            sections["trajectory"] = {**changes["trajectory"], "n": base["trajectory"]["n"]}
        _write_ini(work / f"scan-{label}.ini", sections)
        _write_ini(work / f"scan-{label}.cfg", {"setup": setup})
        calls.append((f"scan-{label}",
                      ["--seed", str(meta["seed"]), "scan", "--scenario",
                       str(work / f"scan-{label}.ini"), "--config",
                       str(work / f"scan-{label}.cfg"), "--out",
                       str(work / f"walk-{label}.csv")]))
    return calls


def _calibrate_calls(work: Path, meta: dict) -> list[tuple[str, list[str]]]:
    """Write the calibrate call set's captures and poses, made from the survey
    workload's pass; its calls."""
    raw = (work / "survey.wcap").read_bytes()
    frames = meta["frames"]
    starts = _record_starts(raw, frames)
    foreign, missing = frames - 30, frames - 25  # records
    records = [raw[a + 4:b] for a, b in zip(starts, starts[1:])]
    zeros = [record[:32] + bytes(len(record) - 32) for record in records]
    header = bytearray(records[foreign][:32])
    struct.pack_into("<BH", header, 7, 20, 36)  # channel 36 at 20 MHz: 52 subcarriers
    struct.pack_into("<H", header, 14, 52)
    records[foreign] = bytes(header) + records[foreign][32:32 + 8 * header[5] * header[6] * 52]
    for label, kept in (("foreign", records), ("zero", zeros)):
        (work / f"calibrate-{label}.wcap").write_bytes(raw[:16] + b"".join(
            struct.pack("<I", len(record)) + record for record in kept))
    lines = (work / "survey.poses.csv").read_text().splitlines(keepends=True)
    (work / "calibrate-missing.csv").write_text("".join(lines[:missing + 1] + lines[missing + 2:]))
    cases = {"missing-pose": ("survey.wcap", "calibrate-missing.csv", []),
             "foreign-channel": ("calibrate-foreign.wcap", "survey.poses.csv", []),
             "missing-pose-after-foreign": ("calibrate-foreign.wcap", "calibrate-missing.csv", []),
             "min-pairs": ("survey.wcap", "survey.poses.csv", ["--min-pairs", str(frames + 1)]),
             "tx-antenna": ("survey.wcap", "survey.poses.csv", ["--tx-antenna", "1"]),
             "zero": ("calibrate-zero.wcap", "survey.poses.csv", [])}
    tx = f"{meta['tx'][0]!r},{meta['tx'][1]!r}"
    return [(f"calibrate-{label}",
             ["calibrate", "--capture", str(work / capture), "--poses", str(work / poses),
              f"--tx={tx}", "--geometry", meta["geometry"], *flags,
              "--out", str(work / f"calibrate-{label}.cal")])
            for label, (capture, poses, flags) in cases.items()]


def _extra_calls(name: str, work: Path, meta: dict) -> list[tuple[str, list[str]]]:
    """The workload's calls beyond its pass, as (label, argv)."""
    if name == "survey-sq80":
        return _scan_calls(work, meta) + _calibrate_calls(work, meta)
    if name == "replay-bartlett-sq80":
        return _bearing(work, "square", meta["capture"], meta["calibration"],
                        ("bartlett", "music"))
    if name == "replay-spotfi-ula80":
        return _bearing(work, "ula", meta["capture"], meta["calibration"],
                        ("bartlett", "music", "spotfi"))
    if name != "ingest-music-sq20":
        return []
    filters = ["--mac-filter", meta["keep_mac"], "--rssi-floor", repr(meta["rssi_floor"])]
    calls = [(f"decode-{label}", ["decode", "--capture", str(work / meta["capture"]), *flags,
                                  "--csv", str(work / f"decode-{label}.csv")])
             for label, flags in (("all", []), ("filtered", filters))]
    calls += _bearing(work, "filtered", meta["capture"], meta["calibration"],
                      ("bartlett", "music"), filters)
    for fault in meta["faults"]:
        capture = str(work / f"fault-{fault}.wcap")
        calls.append((f"fault-{fault}-decode", ["decode", "--capture", capture, "--csv",
                                                str(work / f"fault-{fault}.csv")]))
        calls += [(f"fault-{fault}-profile{index}",
                   ["profile", "--capture", capture, "--index", str(index), "--calibration",
                    str(work / meta["calibration"]),
                    "--out", str(work / f"fault-{fault}-{index}.pgm")]) for index in (7, 2)]
    return calls


def _simulate_calls(work: Path, seed: int, tiny: bool) -> list[tuple[str, list[str]]]:
    """Write the simulate call set's scenarios to `work`; its calls as (label, argv)."""
    calls = []
    for label, changes in SIM_CALLS.items():
        sections = {**SIM_BASE, **changes}
        sections["simulation"] = {**sections["simulation"], "seed": seed}
        sections["trajectory"] = {**sections["trajectory"], "n": 12 if tiny else 300}
        _write_ini(work / f"{label}.ini", sections)
        calls.append((f"simulate-{label}",
                      ["simulate", "--scenario", str(work / f"{label}.ini"),
                       "--capture", str(work / f"{label}.wcap"),
                       "--poses", str(work / f"{label}.poses.csv")]))
    return calls


class _Recorder:
    """The manifest entries of one workload's work directory, and the kept texts."""

    def __init__(self, work: Path, prefix: str, entries: dict, keep: Path):
        self.work, self.prefix, self.entries, self.keep = work, prefix, entries, keep
        self.marker = str(work).encode()

    def normalise(self, data: bytes) -> bytes:
        return data.replace(self.marker, b"<work>")

    def snapshot(self) -> dict[str, bytes]:
        return {path.relative_to(self.work).as_posix(): self.normalise(path.read_bytes())
                for path in sorted(self.work.rglob("*")) if path.is_file()}

    def add(self, name: str, data: bytes) -> None:
        entry = f"{self.prefix}/{name}"
        self.entries[entry] = _hash(data)
        if entry.endswith(TEXT_SUFFIXES):
            path = self.keep / entry
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)

    def call(self, label: str, argv: list[str], run_cli) -> None:
        """Run one CLI call; record its exit code, output streams and changed files."""
        before = self.snapshot()
        code, out, err = run_cli(argv)
        self.entries[f"{self.prefix}/{label}/exit"] = f"exit {code}"
        self.add(f"{label}/stdout", self.normalise(out.encode()))
        self.add(f"{label}/stderr", self.normalise(err.encode()))
        for rel, data in self.snapshot().items():
            if before.get(rel) != data:
                self.add(f"{label}/{rel}", data)


def run(out: Path, root: Path, seeds, tiny: bool) -> dict[str, str]:
    """Run every call under the package in `root`; write and return the manifest."""
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(REPO / "perfbench"))
    import csisense
    from workloads import WORKLOADS, run_cli

    if Path(csisense.__file__).resolve().parent != (root / "src" / "csisense").resolve():
        raise SystemExit(f"csisense imported from {csisense.__file__}, not from {root}/src")
    entries: dict[str, str] = {}
    shutil.rmtree(out / "files", ignore_errors=True)
    for seed in seeds:
        for name, workload in WORKLOADS.items():
            with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
                work = Path(tmp)
                rec = _Recorder(work, f"seed{seed}/{name}", entries, out / "files")
                meta = workload.setup(work, seed, tiny)
                if name == "ingest-music-sq20":
                    meta["faults"] = _fault_captures(work, meta["capture"])
                rec.add("setup/meta.json",
                        rec.normalise(json.dumps(meta, sort_keys=True).encode()))
                for rel, data in rec.snapshot().items():
                    rec.add(f"setup/{rel}", data)
                for k, step in enumerate(workload.steps(work, meta)):
                    rec.call(f"pass{k}-{step.command}", step.argv, run_cli)
                for label, argv in _extra_calls(name, work, meta):
                    rec.call(label, argv, run_cli)
                if name == "ingest-music-sq20":
                    datagrams, calls = _stream_calls(work, meta)
                    for label, argv in calls:
                        rec.call(label, argv, _streaming(run_cli, datagrams))
        with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
            work = Path(tmp)
            rec = _Recorder(work, f"seed{seed}/simulate", entries, out / "files")
            calls = _simulate_calls(work, seed, tiny)
            for rel, data in rec.snapshot().items():
                rec.add(f"setup/{rel}", data)
            for label, argv in calls:
                rec.call(label, argv, run_cli)
    manifest = {"seeds": list(seeds), "tiny": tiny, "entries": dict(sorted(entries.items()))}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return manifest["entries"]


def compare(a: Path, b: Path) -> list[str]:
    """The report lines for every entry that differs between runs `a` and `b`."""
    ea = json.loads((a / "manifest.json").read_text())["entries"]
    eb = json.loads((b / "manifest.json").read_text())["entries"]
    lines = []
    for entry in sorted(set(ea) | set(eb)):
        if entry not in eb or entry not in ea:
            lines.append(f"only in {a if entry in ea else b}: {entry}")
        elif ea[entry] != eb[entry]:
            lines.append(f"differs: {entry}")
            if entry.endswith(TEXT_SUFFIXES):
                rows = difflib.unified_diff(
                    (a / "files" / entry).read_text().splitlines(),
                    (b / "files" / entry).read_text().splitlines(), lineterm="", n=0)
                shown = [row for row in rows if row[:1] in "-+" and row[:3] not in ("---", "+++")]
                lines += [f"  {row}" for row in shown[:MAX_ROWS_SHOWN]]
                if len(shown) > MAX_ROWS_SHOWN:
                    lines.append(f"  ... {len(shown) - MAX_ROWS_SHOWN} more rows")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", type=Path, help="write the manifest of one run to this directory")
    mode.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                      help="list the entries that differ between two runs")
    parser.add_argument("--root", type=Path, default=REPO,
                        help="checkout whose src/ is run (default: this one)")
    parser.add_argument("--seeds", default=",".join(map(str, SEEDS)))
    parser.add_argument("--tiny", action="store_true", help="the workloads' tiny inputs")
    args = parser.parse_args(argv)
    if args.compare:
        lines = compare(*args.compare)
        print("\n".join(lines) if lines else "no entry differs")
        return 1 if lines else 0
    args.out.mkdir(parents=True, exist_ok=True)
    entries = run(args.out, args.root.resolve(), [int(s) for s in args.seeds.split(",")],
                  args.tiny)
    print(f"{len(entries)} entries in {args.out / 'manifest.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
