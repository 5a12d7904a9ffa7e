"""Smoke test of the byte-identity harness, `tools/golden.py`: two tiny runs
of one seed compare empty, and a changed CSV row is reported."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parents[1] / "tools" / "golden.py"


def golden(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(GOLDEN), *args], capture_output=True,
                          text=True, timeout=300)


def test_two_tiny_runs_compare_empty_and_a_changed_row_is_reported(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        proc = golden("--out", str(out), "--tiny", "--seeds", "1")
        assert proc.returncode == 0, proc.stderr
    entries = json.loads((b / "manifest.json").read_text())["entries"]
    fault = "seed1/ingest-music-sq20/fault-magic7-"
    assert [entries[f"{fault}profile7/exit"], entries[f"{fault}profile2/exit"]] == [
        "exit 2", "exit 0"]
    assert (b / "files" / f"{fault}profile7/stderr").read_text() == (
        "error: data: frame 7 of 40 undecodable: bad magic 0x58585858\n")
    # the stream set's 41 datagrams: the 40 records and one cut short
    assert (b / "files" / "seed1/ingest-music-sq20/stream-decode/stderr").read_text() == (
        "decoded 40 frames (dropped: 1 decode, 0 mac, 0 rssi)\n")
    proc = golden("--compare", str(a), str(b))
    assert (proc.returncode, proc.stdout) == (0, "no entry differs\n")

    entry = "seed1/ingest-music-sq20/pass0-decode/frames.csv"
    path = b / "files" / entry
    rows = path.read_text().splitlines(keepends=True)
    row = rows[3].rstrip("\n")
    rows[3] = row.replace(",", ";", 1) + "\n"
    path.write_text("".join(rows))
    entries[entry] = "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()
    (b / "manifest.json").write_text(json.dumps({"entries": entries}))
    proc = golden("--compare", str(a), str(b))
    assert proc.returncode == 1
    assert proc.stdout.splitlines() == [f"differs: {entry}", f"  -{row}",
                                        f"  +{row.replace(',', ';', 1)}"]
