"""Bit-exact wire and file codec for CSI frames, plus capture replay.

Wire layout (all little-endian, 32-byte header):

    offset  size  field
    0       4     magic, u32 = 0x57435349 ("WCSI")
    4       1     version, u8 = 1
    5       1     n_rx, u8
    6       1     n_tx, u8
    7       1     bandwidth_mhz, u8
    8       2     channel_number, u16
    10      2     seq, u16
    12      1     rssi_dbm, i8 (rounded)
    13      1     pad, u8 = 0
    14      2     n_sub, u16
    16      6     source_mac
    22      2     reserved, u16 = 0 (keeps the timestamp 8-aligned)
    24      8     timestamp_ns, u64

followed by 8 * n_rx * n_tx * n_sub payload bytes: float32 (real, imag)
pairs in rx-major, then tx, then subcarrier order.

Capture files (".wcap"): a 16-byte header (magic "WCAP", u32 version = 1,
u64 frame count) followed by `count` length-prefixed (u32) wire frames.

Ingest (`ingest_capture`, `ingest_stream`) takes each wire frame in this
order: every header and length check of `decode_frame`; then the MAC
allow-list and the RSSI floor, read from the header; then the payload's
finite check, on every frame, dropped or kept; then a `CsiFrame`, only
for a kept frame.  A frame that fails a check is undecodable whether or
not the filter would have dropped it: fatal in a capture, counted as
`dropped_decode` in a stream.

A capture is ingested `REPLAY_BLOCK` records at a time (a stream one
datagram at a time): the headers of a block are parsed and filtered, and
the payloads of its dropped records share one finite check.  Counting,
yielding and faults still go record by record, in record order: a
record is counted only as it is reached, and the first faulty record
raises after every record before it was counted and yielded, so the
counts and frames seen before a fault do not depend on the block.
"""

from __future__ import annotations

import socket
import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator

import numpy as np

from .core import (
    MAX_ANTENNAS,
    ChannelSpec,
    ConfigurationError,
    CsiFrame,
    CsiSenseError,
    FrameValidationError,
    usable_subcarrier_count,
)

FRAME_MAGIC = 0x57435349
FRAME_VERSION = 1
_HEADER = struct.Struct("<IBBBBHHbBH6sHQ")
HEADER_SIZE = _HEADER.size  # 32
# The largest valid frame: 4 x 4 antennas on the 234 subcarriers of 80 MHz.
_MAX_FRAME_SIZE = HEADER_SIZE + 8 * MAX_ANTENNAS ** 2 * usable_subcarrier_count(80)

CAPTURE_MAGIC = b"WCAP"
CAPTURE_VERSION = 1
_CAPTURE_HEADER = struct.Struct("<4sIQ")
CAPTURE_HEADER_SIZE = _CAPTURE_HEADER.size  # 16
_LENGTH_PREFIX = struct.Struct("<I")

DEFAULT_UDP_PORT = 5500

# Records per block when a capture is replayed: ingest checks a block's
# dropped payloads at once, and `bearing` estimates a block's frames at once.
REPLAY_BLOCK = 32


class CodecError(CsiSenseError):
    """Base class for frame and capture codec errors."""


class BadMagicError(CodecError):
    pass


class UnsupportedVersionError(CodecError):
    pass


class TruncatedFrameError(CodecError):
    pass


class FrameFormatError(CodecError):
    """Inconsistent counts, out-of-range fields, or trailing bytes."""


class CaptureFormatError(CodecError):
    """Corrupt capture file header."""


class CaptureTruncatedError(CodecError):
    """Capture ended mid-frame or holds an undecodable frame."""


def encode_frame(frame: CsiFrame) -> bytes:
    """Serialize a frame to the documented wire layout.

    The rssi field is rounded to the nearest integer dB; every other
    field round-trips bit-exactly.
    """
    rssi = int(round(frame.rssi_dbm))
    _check_range("rssi_dbm", rssi, -128, 127)
    _check_range("seq", frame.seq, 0, 0xFFFF)
    _check_range("timestamp_ns", frame.timestamp_ns, 0, 0xFFFFFFFFFFFFFFFF)
    header = _HEADER.pack(
        FRAME_MAGIC,
        FRAME_VERSION,
        frame.n_rx,
        frame.n_tx,
        frame.chanspec.bandwidth_mhz,
        frame.chanspec.channel_number,
        frame.seq,
        rssi,
        0,
        frame.n_sub,
        frame.source_mac,
        0,
        frame.timestamp_ns,
    )
    payload = np.ascontiguousarray(frame.csi, dtype=np.complex64).view(np.float32)
    return header + payload.tobytes()


def decode_frame(buf: bytes) -> CsiFrame:
    """Decode one wire frame; raises a structured CodecError on any defect.

    Never reads past the buffer and never raises anything that is not a
    CodecError, no matter the input bytes.  The frame's csi is a
    read-only view of the payload in `buf`, so encode_frame gives back
    the same bytes.
    """
    return _build_frame(buf, _parse_header(buf))


def _parse_header(buf: bytes) -> tuple:
    """Every header and length check of a wire frame, in `decode_frame`'s order.

    Returns the fields (n_rx, n_tx, n_sub, chanspec, seq, rssi, mac,
    timestamp); rssi is the wire's integer.  The payload is unread.
    """
    if len(buf) < HEADER_SIZE:
        raise TruncatedFrameError(f"buffer too short for header: {len(buf)} bytes")
    (magic, version, n_rx, n_tx, bandwidth, channel, seq, rssi, _pad, n_sub,
     mac, _reserved, timestamp) = _HEADER.unpack_from(buf)
    if magic != FRAME_MAGIC:
        raise BadMagicError(f"bad magic 0x{magic:08x}")
    if version != FRAME_VERSION:
        raise UnsupportedVersionError(f"unsupported frame version {version}")
    try:
        chanspec, expected_sub = _channel(channel, bandwidth)
    except ConfigurationError as exc:
        raise FrameFormatError(str(exc)) from exc
    if not (1 <= n_rx <= MAX_ANTENNAS and 1 <= n_tx <= MAX_ANTENNAS):
        raise FrameFormatError(f"antenna counts out of range: rx={n_rx} tx={n_tx}")
    if n_sub != expected_sub:
        raise FrameFormatError(
            f"n_sub={n_sub} inconsistent with {bandwidth} MHz (expected {expected_sub})"
        )
    expected = HEADER_SIZE + 8 * n_rx * n_tx * n_sub
    if len(buf) < expected:
        raise TruncatedFrameError(f"payload truncated: {len(buf)} of {expected} bytes")
    if len(buf) > expected:
        raise FrameFormatError(f"{len(buf) - expected} trailing bytes")
    return n_rx, n_tx, n_sub, chanspec, seq, rssi, mac, timestamp


@lru_cache(maxsize=None)
def _channel(channel: int, bandwidth: int) -> tuple[ChannelSpec, int]:
    """A header's (frozen) ChannelSpec and its subcarrier count, built once per
    valid pair: at most 200 x 3 entries, as a pair that fails raises and is
    not cached."""
    chanspec = ChannelSpec(channel, bandwidth)
    return chanspec, chanspec.n_sub


def _build_frame(buf: bytes, header: tuple) -> CsiFrame:
    """The frame of a buffer `_parse_header` passed: csi is a read-only
    view of its payload, and CsiFrame runs the finite check."""
    n_rx, n_tx, n_sub, chanspec, seq, rssi, mac, timestamp = header
    csi = np.frombuffer(buf, dtype="<c8", offset=HEADER_SIZE).reshape(n_rx, n_tx, n_sub)
    try:
        return CsiFrame(
            csi=csi,
            rssi_dbm=float(rssi),
            source_mac=mac,
            seq=seq,
            chanspec=chanspec,
            timestamp_ns=timestamp,
        )
    except FrameValidationError as exc:
        raise FrameFormatError(str(exc)) from exc


def _all_finite(bufs: list[bytes]) -> bool:
    """The payload check dropped frames get instead of a CsiFrame: whether every
    payload float of the parsed records `bufs` is finite, in one check."""
    payloads = b"".join(memoryview(buf)[HEADER_SIZE:] for buf in bufs)
    return bool(np.isfinite(np.frombuffer(payloads, "<f4")).all())


def parse_mac(text: str) -> bytes:
    """Parse "aa:bb:cc:dd:ee:ff" into 6 bytes."""
    parts = text.strip().split(":")
    if len(parts) != 6:
        raise ConfigurationError(f"bad MAC address {text!r}")
    try:
        return bytes(int(p, 16) for p in parts)
    except ValueError as exc:
        raise ConfigurationError(f"bad MAC address {text!r}") from exc


def format_mac(mac: bytes) -> str:
    return ":".join(f"{b:02x}" for b in mac)


@dataclass
class IngestStats:
    """Drop accounting for one ingest stream."""

    received: int = 0
    delivered: int = 0
    dropped_decode: int = 0
    dropped_mac: int = 0
    dropped_rssi: int = 0


def ingest_stream(
    datagrams: Iterable[bytes],
    mac_allow: set[bytes] | None = None,
    rssi_floor_dbm: float | None = None,
    stats: IngestStats | None = None,
) -> Iterator[CsiFrame]:
    """Decode datagrams (one frame each), filter, preserve arrival order.

    Every datagram counts as received; the dropped ones are counted by
    reason.  An empty/None allow-list passes every MAC, and a frame
    passes the floor unless its header's RSSI is below it.  Malformed
    datagrams are counted as received and dropped, never fatal.  Each
    datagram is its own block: a frame is yielded before the next
    datagram is waited for.
    """
    if stats is None:
        stats = IngestStats()
    return _ingest(datagrams, mac_allow, rssi_floor_dbm, stats, lambda k, exc: None, 1)


def _ingest(
    records: Iterable[bytes],
    mac_allow: set[bytes] | None,
    rssi_floor_dbm: float | None,
    stats: IngestStats,
    undecodable: Callable[[int, CodecError], None],
    block: int,
) -> Iterator[CsiFrame]:
    """The ingest loop of captures and streams, `block` records at a time.

    Checks run in the module docstring's order.  `undecodable(k, exc)`
    sees record k's CodecError first: a capture raises from it, and a
    stream returns, so the record counts as dropped_decode.  A
    CodecError or OSError that `records` raises (a capture cut short) is
    raised once the records read before it have been counted and yielded.
    """
    records = iter(records)
    k = 0
    while True:
        bufs, fault = [], None
        try:
            for buf in records:
                bufs.append(buf)
                if len(bufs) == block:
                    break
        except (CodecError, OSError) as exc:
            fault = exc
        # each record's outcome, with its parsed header or its CodecError
        checked: list[tuple[str, object]] = []
        for buf in bufs:
            try:
                header = _parse_header(buf)
            except CodecError as exc:
                checked.append(("dropped_decode", exc))
                continue
            rssi, mac = header[5], header[6]
            if mac_allow and mac not in mac_allow:
                checked.append(("dropped_mac", header))
            elif rssi_floor_dbm is not None and float(rssi) < rssi_floor_dbm:
                checked.append(("dropped_rssi", header))
            else:
                checked.append(("delivered", header))
        dropped = [j for j, (outcome, _) in enumerate(checked)
                   if outcome in ("dropped_mac", "dropped_rssi")]
        if dropped and not _all_finite([bufs[j] for j in dropped]):
            for j in dropped:  # which of them failed: a fault path only
                if not _all_finite([bufs[j]]):  # CsiFrame's message
                    checked[j] = ("dropped_decode",
                                  FrameFormatError("csi entries must be finite"))
        for j, (outcome, detail) in enumerate(checked):
            buf, bufs[j] = bufs[j], None  # a frame's record lives no longer than the frame
            if outcome == "delivered":
                try:
                    frame = _build_frame(buf, detail)
                except CodecError as exc:
                    outcome, detail = "dropped_decode", exc
            if outcome == "dropped_decode":
                undecodable(k, detail)
            k += 1
            stats.received += 1
            setattr(stats, outcome, getattr(stats, outcome) + 1)
            if outcome == "delivered":
                yield frame
        if fault is not None:
            raise fault
        if len(bufs) < block:
            return


def udp_datagrams(
    port: int = DEFAULT_UDP_PORT,
    host: str = "0.0.0.0",
    max_datagrams: int | None = None,
    timeout_s: float | None = None,
) -> Iterator[bytes]:
    """Yield UDP datagrams from a bound socket (one wire frame each).

    Stops after `max_datagrams` or on receive timeout.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        sock.bind((host, port))
        sock.settimeout(timeout_s)
        count = 0
        while max_datagrams is None or count < max_datagrams:
            try:
                # one byte over the largest frame: a longer datagram, cut
                # here, still fails to decode
                buf, _addr = sock.recvfrom(_MAX_FRAME_SIZE + 1)
            except socket.timeout:
                return
            count += 1
            yield buf
    finally:
        sock.close()


def write_capture(path, frames: Iterable[CsiFrame]) -> int:
    """Write frames to a .wcap capture file; returns the frame count."""
    encoded = [encode_frame(f) for f in frames]
    with open(path, "wb") as fh:
        fh.write(_CAPTURE_HEADER.pack(CAPTURE_MAGIC, CAPTURE_VERSION, len(encoded)))
        for buf in encoded:
            fh.write(_LENGTH_PREFIX.pack(len(buf)))
            fh.write(buf)
    return len(encoded)


def iter_capture(path) -> Iterator[CsiFrame]:
    """Yield frames from a capture in stored order.

    Raises CaptureFormatError on a corrupt header and
    CaptureTruncatedError when the file ends mid-frame or holds an
    undecodable frame (frames already yielded remain valid).
    """
    return ingest_capture(path)


def ingest_capture(
    path,
    mac_allow: set[bytes] | None = None,
    rssi_floor_dbm: float | None = None,
    stats: IngestStats | None = None,
) -> Iterator[CsiFrame]:
    """The capture's frames that pass the MAC allow-list and the RSSI floor, in order.

    Filters and counts as `ingest_stream` does, but builds no frame the
    filter drops.  A frame that fails to decode raises as in
    `iter_capture`, dropped or not.  Records are read and checked
    `REPLAY_BLOCK` at a time.
    """
    if stats is None:
        stats = IngestStats()
    with open(path, "rb") as fh:
        count = _read_capture_header(fh)
        yield from _ingest(_capture_records(fh, count), mac_allow, rssi_floor_dbm, stats,
                           lambda k, exc: _undecodable(k, count, exc), REPLAY_BLOCK)


def read_capture(path) -> list[CsiFrame]:
    """Read a whole capture; raises as `iter_capture` does."""
    return list(iter_capture(path))


def read_capture_frame(path, index: int) -> CsiFrame:
    """Decode frame `index` of a capture, and no other.

    The other frames are stepped over by their length prefixes, so the
    capture's framing is still checked end to end: a corrupt header, a
    truncated file or trailing bytes fail as in `read_capture`.  An index
    outside the header's frame count raises ConfigurationError.
    """
    with open(path, "rb") as fh:
        count = _read_capture_header(fh)
        if not 0 <= index < count:
            raise ConfigurationError(
                f"frame index {index} out of range (capture has {count} frames)"
            )
        for k, buf in enumerate(_capture_records(fh, count)):
            if k == index:
                frame = _decode_record(buf, k, count)
    return frame


def _read_capture_header(fh) -> int:
    """Check a capture's header; returns its frame count."""
    head = fh.read(CAPTURE_HEADER_SIZE)
    if len(head) < CAPTURE_HEADER_SIZE:
        raise CaptureFormatError("file too short for capture header")
    magic, version, count = _CAPTURE_HEADER.unpack(head)
    if magic != CAPTURE_MAGIC:
        raise CaptureFormatError(f"bad capture magic {magic!r}")
    if version != CAPTURE_VERSION:
        raise CaptureFormatError(f"unsupported capture version {version}")
    return count


def _capture_records(fh, count: int) -> Iterator[bytes]:
    """Yield the `count` length-prefixed wire frames that follow the header, undecoded.

    Two reads per record, the length prefix and then the record.  One read
    per record (the record with the next prefix), as bytes or as memoryview
    slices, measured slower: a buffered 4-byte read costs less than the
    slicing and bookkeeping that replace it.
    """
    for k in range(count):
        prefix = fh.read(_LENGTH_PREFIX.size)
        if len(prefix) < _LENGTH_PREFIX.size:
            raise CaptureTruncatedError(f"capture ends at frame {k} of {count}")
        (length,) = _LENGTH_PREFIX.unpack(prefix)
        if length > _MAX_FRAME_SIZE:
            raise CaptureTruncatedError(
                f"frame {k} of {count} has implausible length {length}"
            )
        buf = fh.read(length)
        if len(buf) < length:
            raise CaptureTruncatedError(f"frame {k} of {count} cut short")
        yield buf
    if fh.read(1):
        raise CaptureFormatError("trailing bytes after final frame")


def _decode_record(buf: bytes, k: int, count: int) -> CsiFrame:
    try:
        return decode_frame(buf)
    except CodecError as exc:
        _undecodable(k, count, exc)


def _undecodable(k: int, count: int, exc: CodecError) -> None:
    """Raise the CodecError of record k of a capture as the capture's fault."""
    raise CaptureTruncatedError(f"frame {k} of {count} undecodable: {exc}") from exc


def _check_range(name: str, value: int, lo: int, hi: int) -> None:
    if not lo <= value <= hi:
        raise FrameFormatError(f"{name}={value} does not fit the wire layout")
