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

Ingest (`ingest_capture_blocks`, `ingest_stream_blocks`) takes each wire
frame in this order: every header and length check of `decode_frame`;
then the MAC allow-list and the RSSI floor, read from the header; then
the payload's finite check, on every frame, dropped or kept.  A frame
that fails a check is undecodable whether or not the filter would have
dropped it.  The frame count sets the fault policy: a capture (its
header gives the count) is ingested `REPLAY_BLOCK` records at a time,
and its first undecodable record is fatal, as a file that ends early
is; a stream (no count) is ingested one datagram at a time, and an
undecodable datagram is counted as `dropped_decode`.

The payloads of an ingest block's parsed records, kept and dropped, are
joined once and share one finite check; only when it fails are they
checked one by one, to find the faulty ones.  The kept frames come out
as `FrameBlock`s: the consecutive delivered frames of one ingest block
that share (chanspec, n_rx, n_tx), their csi one (frames, n_rx, n_tx,
n_sub) array over the joined payloads and their header fields per-frame
sequences.  A block ends at a change of (chanspec, n_rx, n_tx), at the
end of its ingest block, and before the first faulty record; a capture
raises at that record only after every block before it was yielded and
every record before it counted.  A record is counted only once
everything before it was consumed: each block carries, per frame, the
drops since the block before, and its consumer counts the frames it
used (`IngestStats.count`), so the counts seen at a fault do not depend
on how the records were cut into blocks.
"""

from __future__ import annotations

import os
import socket
import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from .core import (
    MAX_ANTENNAS,
    ChannelSpec,
    ConfigurationError,
    CsiFrame,
    CsiSenseError,
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
_MIN_RECORD_SIZE = _LENGTH_PREFIX.size + HEADER_SIZE + 8 * usable_subcarrier_count(20)

DEFAULT_UDP_PORT = 5500

# Records per ingest block when a capture is replayed: ingest checks a
# block's payloads at once, and `bearing` calibrates and estimates each
# `FrameBlock` of it at once.
REPLAY_BLOCK = 32
# Capture files are read through a 64 KiB buffer: with the default
# (st_blksize, often 4 KiB) each 7.5 KB record of an 80 MHz capture is
# its own read system call.
_READ_BUFFER = 1 << 16


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
    header = _HEADER.pack(
        FRAME_MAGIC,
        FRAME_VERSION,
        frame.n_rx,
        frame.n_tx,
        frame.chanspec.bandwidth_mhz,
        frame.chanspec.channel_number,
        frame.seq,
        _wire_rssi(frame),
        0,
        frame.n_sub,
        frame.source_mac,
        0,
        frame.timestamp_ns,
    )
    payload = np.ascontiguousarray(frame.csi, dtype=np.complex64).view(np.float32)
    return header + payload.tobytes()


def _wire_rssi(frame: CsiFrame) -> int:
    """The frame's rssi as the wire's integer, once its rssi, seq and
    timestamp are checked to fit the wire layout."""
    rssi = int(round(frame.rssi_dbm))
    _check_range("rssi_dbm", rssi, -128, 127)
    _check_range("seq", frame.seq, 0, 0xFFFF)
    _check_range("timestamp_ns", frame.timestamp_ns, 0, 0xFFFFFFFFFFFFFFFF)
    return rssi


def decode_frame(buf: bytes) -> CsiFrame:
    """Decode one wire frame; raises a structured CodecError on any defect.

    Never reads past the buffer and never raises anything that is not a
    CodecError, no matter the input bytes.  The checks are ingest's:
    `_parse_header`, then the payload's finite check, so the frame is
    built without running `CsiFrame`'s checks again.  Its csi is a
    read-only view of the payload in `buf`, so encode_frame gives back
    the same bytes.
    """
    n_rx, n_tx, n_sub, chanspec, seq, rssi, mac, timestamp = _parse_header(buf)
    if not _all_finite(buf[HEADER_SIZE:]):
        raise FrameFormatError("csi entries must be finite")
    csi = np.frombuffer(buf, dtype="<c8", offset=HEADER_SIZE).reshape(n_rx, n_tx, n_sub)
    return CsiFrame._from_checked(csi, float(rssi), mac, seq, chanspec, timestamp)


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


def _all_finite(payloads: bytes) -> bool:
    """Whether every float of the joined payloads is finite, in one check."""
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
    """Format 6 bytes as "aa:bb:cc:dd:ee:ff"."""
    return mac.hex(":")


@dataclass(eq=False)
class FrameBlock:
    """Consecutive delivered frames of one ingest block that share
    (chanspec, n_rx, n_tx), as arrays.

    csi is (frames, n_rx, n_tx, n_sub) complex64, a read-only view of the
    joined payloads.  The header fields are per-frame sequences, and
    `index` is each frame's record number in its capture or stream.
    `drops[i]` counts the (decode, mac, rssi) drops from the delivered
    frame before the block up to frame i, which `IngestStats.count` adds
    with the frames.
    """

    csi: np.ndarray
    chanspec: ChannelSpec
    index: list[int]
    seq: list[int]
    rssi_dbm: list[float]
    source_mac: list[bytes]
    timestamp_ns: list[int]
    drops: list[tuple[int, int, int]]

    def __len__(self) -> int:
        return len(self.index)

    def frame(self, i: int) -> CsiFrame:
        """Frame i of the block, its csi a read-only view of the block's.  Ingest
        ran every check of a `CsiFrame` on it, so none runs again."""
        return CsiFrame._from_checked(self.csi[i], self.rssi_dbm[i], self.source_mac[i],
                                      self.seq[i], self.chanspec, self.timestamp_ns[i])


@dataclass
class IngestStats:
    """Drop accounting for one ingest stream."""

    received: int = 0
    delivered: int = 0
    dropped_decode: int = 0
    dropped_mac: int = 0
    dropped_rssi: int = 0

    def count(self, block: FrameBlock, stop: int | None = None) -> None:
        """Count the first `stop` frames of `block` as delivered, each with the
        records dropped before it (all the block's frames by default)."""
        stop = len(block) if stop is None else stop
        if stop > 0:
            self.received += stop
            self.delivered += stop
            self._add_drops(block.drops[stop - 1])

    def _add_drops(self, drops: tuple[int, int, int]) -> None:
        """Count (decode, mac, rssi) dropped records as received and dropped."""
        decode, mac, rssi = drops
        self.received += decode + mac + rssi
        self.dropped_decode += decode
        self.dropped_mac += mac
        self.dropped_rssi += rssi


def ingest_stream_blocks(
    datagrams: Iterable[bytes],
    mac_allow: set[bytes] | None = None,
    rssi_floor_dbm: float | None = None,
    stats: IngestStats | None = None,
) -> Iterator[FrameBlock]:
    """Decode datagrams (one frame each), filter, preserve arrival order.

    Each datagram is its own ingest block: a delivered frame comes out, a
    block of one, before the next is waited for.  An empty/None allow-list
    passes every MAC, and a frame passes the floor unless its header's
    RSSI is below it.  A malformed datagram is dropped, never fatal.  The
    caller counts each block's frames with `stats.count(block)`; the
    datagrams no frame carries are counted here, dropped ones by reason.
    """
    if stats is None:
        stats = IngestStats()
    return _ingest_blocks(datagrams, mac_allow, rssi_floor_dbm, stats, None)


def _ingest_blocks(
    records: Iterable[bytes],
    mac_allow: set[bytes] | None,
    rssi_floor_dbm: float | None,
    stats: IngestStats,
    count: int | None,
) -> Iterator[FrameBlock]:
    """The ingest loop of a capture of `count` records, or of a stream (None).

    Checks run in the module docstring's order.  A capture is read
    `REPLAY_BLOCK` records at a time; at an undecodable record it raises
    CaptureTruncatedError once the blocks before it were yielded and the
    records before it counted, and a CodecError or OSError that
    `records` raises (a capture cut short) is raised the same way.  A
    stream is read one datagram at a time, so nothing follows an
    undecodable datagram in its ingest block: it counts as
    dropped_decode.  A dropped record is counted with the next delivered
    frame (`FrameBlock.drops`), or here, before a fault and at the end.
    """
    size = 1 if count is None else REPLAY_BLOCK
    records = iter(records)
    first = 0  # record number of the ingest block's first record
    pending = (0, 0, 0)  # (decode, mac, rssi) drops since the last delivered frame
    while True:
        bufs, fault = [], None
        try:
            for buf in records:
                bufs.append(buf)
                if len(bufs) == size:
                    break
        except (CodecError, OSError) as exc:
            fault = exc
        blocks, pending, stop, exc = _gather(bufs, first, mac_allow, rssi_floor_dbm, pending)
        yield from blocks
        if stop is not None:
            stats._add_drops(pending)
            if count is not None:
                _undecodable(first + stop, count, exc)
            pending = (1, 0, 0)  # the undecodable datagram, counted with the next frame
        first += len(bufs)
        if fault is not None or len(bufs) < size:
            stats._add_drops(pending)
            if fault is not None:
                raise fault
            return


def _gather(bufs: list[bytes], first: int, mac_allow: set[bytes] | None,
            rssi_floor_dbm: float | None, pending: tuple[int, int, int]) -> tuple:
    """Parse, filter and check records up to the first undecodable one.

    Returns (blocks, pending, stop, exc).  `blocks` are the delivered
    frames as `FrameBlock`s, cut at each change of (chanspec, n_rx,
    n_tx); `first` is the record number of bufs[0].  The payloads of the
    kept frames, then of the dropped records, are joined and share one
    finite check, and the blocks' csi are views of the kept part.
    `pending` (decode, mac, rssi) goes in as the drops before the first
    record and comes out as those after the last frame.  `stop` is the
    position of the first undecodable record, or None, and `exc` its
    CodecError.
    """
    runs: list[tuple] = []
    kept, dropped = [], []
    decode, mac, rssi = pending
    stop = exc = None
    for j, buf in enumerate(bufs):
        try:
            header = _parse_header(buf)
        except CodecError as err:
            stop, exc = j, err
            break
        if mac_allow and header[6] not in mac_allow:
            mac += 1
            dropped.append(buf[HEADER_SIZE:])
        elif rssi_floor_dbm is not None and float(header[5]) < rssi_floor_dbm:
            rssi += 1
            dropped.append(buf[HEADER_SIZE:])
        else:
            key = header[:4]
            if not runs or runs[-1][0] != key:
                runs.append((key, [], [], []))
                total = (0, 0, 0)
            _, index, headers, drops = runs[-1]
            total = (total[0] + decode, total[1] + mac, total[2] + rssi)
            index.append(first + j)
            headers.append(header)
            drops.append(total)
            decode = mac = rssi = 0
            kept.append(buf[HEADER_SIZE:])
    joined = b"".join(kept + dropped)
    if not _all_finite(joined):
        # the first record whose payload is not: a fault path only
        bad = next(j for j, buf in enumerate(bufs[:stop]) if not _all_finite(buf[HEADER_SIZE:]))
        blocks, after, _, _ = _gather(bufs[:bad], first, mac_allow, rssi_floor_dbm, pending)
        return blocks, after, bad, FrameFormatError("csi entries must be finite")
    if dropped:  # a frame's csi keeps `joined` alive: keep no dropped payload in it
        joined = joined[:len(joined) - sum(map(len, dropped))]
    blocks, offset = [], 0  # of each block's payloads in `joined`
    for (n_rx, n_tx, n_sub, chanspec), index, headers, drops in runs:
        csi = np.frombuffer(joined, dtype="<c8", count=len(index) * n_rx * n_tx * n_sub,
                            offset=offset).reshape(len(index), n_rx, n_tx, n_sub)
        offset += csi.nbytes
        blocks.append(FrameBlock(csi, chanspec, index, [h[4] for h in headers],
                                 [float(h[5]) for h in headers], [h[6] for h in headers],
                                 [h[7] for h in headers], drops))
    return blocks, (decode, mac, rssi), stop, exc


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
    """Write frames to a .wcap capture file; returns the frame count.

    Every frame's fields are checked against the wire layout before the
    file is opened, so a frame that does not fit leaves no file; then each
    frame is encoded and written in turn.
    """
    frames = list(frames)
    for frame in frames:
        _wire_rssi(frame)
    with open(path, "wb") as fh:
        fh.write(_CAPTURE_HEADER.pack(CAPTURE_MAGIC, CAPTURE_VERSION, len(frames)))
        for frame in frames:
            buf = encode_frame(frame)
            fh.write(_LENGTH_PREFIX.pack(len(buf)))
            fh.write(buf)
    return len(frames)


def capture_frame_count(path) -> int:
    """The frame count in a capture's header, which is checked as ingest checks it.

    A count larger than the file could hold, at the smallest valid record
    (1 x 1 antennas at 20 MHz), is cut to what it could hold, so that a
    caller may size an array by it: ingest still raises where such a
    capture ends.
    """
    with open(path, "rb") as fh:
        count = _read_capture_header(fh)
        size = os.fstat(fh.fileno()).st_size
    return min(count, max(size - CAPTURE_HEADER_SIZE, 0) // _MIN_RECORD_SIZE)


def ingest_capture_blocks(
    path,
    mac_allow: set[bytes] | None = None,
    rssi_floor_dbm: float | None = None,
    stats: IngestStats | None = None,
) -> Iterator[FrameBlock]:
    """The capture's frames that pass the MAC allow-list and the RSSI floor,
    in order, as blocks of up to `REPLAY_BLOCK` frames.

    Filters and counts as `ingest_stream_blocks` does.  A corrupt header
    raises CaptureFormatError, and a file that ends mid-frame or holds an
    undecodable frame, dropped or not, CaptureTruncatedError (blocks
    already yielded remain valid).  The caller counts each block's frames
    with `stats.count(block)`, and a caller that stops at frame i of a
    block counts `stats.count(block, i + 1)`; the records no frame
    carries are counted here.
    """
    if stats is None:
        stats = IngestStats()
    with open(path, "rb", buffering=_READ_BUFFER) as fh:
        count = _read_capture_header(fh)
        yield from _ingest_blocks(_capture_records(fh, count), mac_allow, rssi_floor_dbm,
                                  stats, count)


def read_capture(path) -> list[CsiFrame]:
    """Read a whole capture; raises as `ingest_capture_blocks` does."""
    return [block.frame(i) for block in ingest_capture_blocks(path) for i in range(len(block))]


def read_capture_frame(path, index: int) -> CsiFrame:
    """Decode frame `index` of a capture, and no other.

    The other frames are stepped over by their length prefixes, so the
    capture's framing is still checked end to end: a corrupt header, a
    truncated file or trailing bytes fail as in `read_capture`.  An index
    outside the header's frame count raises ConfigurationError.
    """
    with open(path, "rb", buffering=_READ_BUFFER) as fh:
        count = _read_capture_header(fh)
        if not 0 <= index < count:
            raise ConfigurationError(
                f"frame index {index} out of range (capture has {count} frames)"
            )
        for k, buf in enumerate(_capture_records(fh, count)):
            if k == index:
                try:
                    frame = decode_frame(buf)
                except CodecError as exc:
                    _undecodable(k, count, exc)
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


def _undecodable(k: int, count: int, exc: CodecError) -> None:
    """Raise the CodecError of record k of a capture as the capture's fault."""
    raise CaptureTruncatedError(f"frame {k} of {count} undecodable: {exc}") from exc


def _check_range(name: str, value: int, lo: int, hi: int) -> None:
    if not lo <= value <= hi:
        raise FrameFormatError(f"{name}={value} does not fit the wire layout")
