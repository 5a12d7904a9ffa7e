import dataclasses
import socket

import numpy as np
import pytest

from csisense import ChannelSpec, CsiFrame, codec
from csisense.codec import (
    BadMagicError,
    CaptureFormatError,
    CaptureTruncatedError,
    CodecError,
    FrameFormatError,
    HEADER_SIZE,
    IngestStats,
    TruncatedFrameError,
    UnsupportedVersionError,
    decode_frame,
    encode_frame,
    format_mac,
    ingest_capture_blocks,
    ingest_stream_blocks,
    parse_mac,
    read_capture,
    udp_datagrams,
    write_capture,
)


def ingest(blocks_of, source, mac_allow=None, rssi_floor_dbm=None, stats=None):
    """`blocks_of` (`ingest_capture_blocks` or `ingest_stream_blocks`) on
    `source`, its frames one at a time; each block is counted in `stats`
    once its frames are drawn, as the CLI counts it."""
    stats = IngestStats() if stats is None else stats
    for block in blocks_of(source, mac_allow, rssi_floor_dbm, stats):
        yield from map(block.frame, range(len(block)))
        stats.count(block)


def filter_frames(frames, mac_allow=None, rssi_floor_dbm=None, stats=None):
    """The MAC/RSSI rule ingest applies to headers, restated on decoded frames:
    the oracle the ingest tests compare with.  Every frame counts as received,
    the dropped ones by reason; an empty/None allow-list passes every MAC."""
    if stats is None:
        stats = IngestStats()
    for frame in frames:
        stats.received += 1
        if mac_allow and frame.source_mac not in mac_allow:
            stats.dropped_mac += 1
            continue
        if rssi_floor_dbm is not None and frame.rssi_dbm < rssi_floor_dbm:
            stats.dropped_rssi += 1
            continue
        stats.delivered += 1
        yield frame


def random_frame(rng, n_rx=None, n_tx=None, bandwidth=None) -> CsiFrame:
    bandwidth = bandwidth or int(rng.choice([20, 40, 80]))
    chanspec = ChannelSpec(int(rng.integers(36, 170)), bandwidth)
    n_rx = n_rx or int(rng.integers(1, 5))
    n_tx = n_tx or int(rng.integers(1, 5))
    shape = (n_rx, n_tx, chanspec.n_sub)
    csi = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(np.complex64)
    return CsiFrame(
        csi=csi,
        rssi_dbm=float(rng.integers(-100, 0)),  # integral: representable on the wire
        source_mac=bytes(rng.integers(0, 256, 6, dtype=np.uint8)),
        seq=int(rng.integers(0, 65536)),
        chanspec=chanspec,
        timestamp_ns=int(rng.integers(0, 2**63)),
    )


class TestWireRoundTrip:
    def test_header_plus_payload_length(self, chan80, rng):
        frame = random_frame(rng, n_rx=4, n_tx=1, bandwidth=80)
        assert len(encode_frame(frame)) == 32 + 8 * 4 * 1 * 234 == 7520

    def test_round_trip_identity(self, rng):
        for _ in range(50):
            frame = random_frame(rng)
            assert decode_frame(encode_frame(frame)) == frame

    def test_bytes_round_trip_keeps_signed_zeros(self, rng):
        frame = random_frame(rng, n_rx=2, n_tx=1, bandwidth=20)
        csi = frame.csi.view(np.float32).reshape(-1, 2)
        signed = [(-0.0, 0.0), (-0.0, 1.5), (-0.0, -0.0), (0.0, -0.0), (2.0, -0.0), (-3.0, 0.0)]
        csi[: len(signed)] = signed
        buf = encode_frame(frame)
        assert encode_frame(decode_frame(buf)) == buf
        assert np.signbit(decode_frame(buf).csi.real.ravel()[0])

    def test_encoding_deterministic(self, rng):
        frame = random_frame(rng)
        assert encode_frame(frame) == encode_frame(frame)

    def test_rssi_out_of_range_rejected(self, rng):
        frame = random_frame(rng)
        frame.rssi_dbm = -200.0
        with pytest.raises(FrameFormatError):
            encode_frame(frame)

    def test_seq_overflow_rejected(self, rng):
        frame = random_frame(rng)
        frame.seq = 70000
        with pytest.raises(FrameFormatError):
            encode_frame(frame)


class TestDecodeErrors:
    def test_truncated_by_one_byte(self, rng):
        buf = encode_frame(random_frame(rng))
        with pytest.raises(TruncatedFrameError):
            decode_frame(buf[:-1])

    def test_wrong_magic(self, rng):
        buf = bytearray(encode_frame(random_frame(rng)))
        buf[0] ^= 0xFF
        with pytest.raises(BadMagicError):
            decode_frame(bytes(buf))

    def test_wrong_version(self, rng):
        buf = bytearray(encode_frame(random_frame(rng)))
        buf[4] = 9
        with pytest.raises(UnsupportedVersionError):
            decode_frame(bytes(buf))

    def test_trailing_bytes_rejected(self, rng):
        buf = encode_frame(random_frame(rng))
        with pytest.raises(FrameFormatError):
            decode_frame(buf + b"\x00")

    def test_inconsistent_subcarrier_count(self, rng):
        buf = bytearray(encode_frame(random_frame(rng, bandwidth=80)))
        buf[14:16] = (100).to_bytes(2, "little")  # n_sub field
        with pytest.raises(FrameFormatError):
            decode_frame(bytes(buf))

    def test_short_buffer(self):
        with pytest.raises(TruncatedFrameError):
            decode_frame(b"\x00" * (HEADER_SIZE - 1))

    def test_nan_payload_rejected(self, rng):
        buf = bytearray(encode_frame(random_frame(rng)))
        buf[-4:] = np.float32(np.nan).tobytes()
        with pytest.raises(FrameFormatError, match="^csi entries must be finite$"):
            decode_frame(bytes(buf))

    @pytest.mark.parametrize("at,value,message", [
        (5, b"\x00", "antenna counts out of range: rx=0 tx=1"),
        (8, b"\x00\x00", "channel number 0 out of range"),
    ], ids=["n_rx-0", "channel-0"])
    def test_out_of_range_header_field(self, rng, at, value, message):
        buf = bytearray(encode_frame(random_frame(rng, n_tx=1)))
        buf[at:at + len(value)] = value
        with pytest.raises(FrameFormatError, match=message):
            decode_frame(bytes(buf))

    def test_fuzz_raises_only_codec_errors(self, rng):
        for _ in range(2000):
            n = int(rng.integers(0, 256))
            buf = bytes(rng.integers(0, 256, n, dtype=np.uint8))
            with pytest.raises(CodecError):
                decode_frame(buf)


class TestMacText:
    def test_round_trip(self):
        assert parse_mac("aa:bb:cc:dd:ee:ff") == bytes.fromhex("aabbccddeeff")
        assert format_mac(bytes.fromhex("aabbccddeeff")) == "aa:bb:cc:dd:ee:ff"

    def test_bad_text(self):
        from csisense import ConfigurationError

        with pytest.raises(ConfigurationError):
            parse_mac("aa:bb:cc")


class TestCapture:
    def test_round_trip(self, tmp_path, rng):
        frames = [random_frame(rng) for _ in range(20)]
        path = tmp_path / "x.wcap"
        assert write_capture(path, frames) == 20
        assert read_capture(path) == frames

    def test_frame_that_does_not_fit_leaves_no_file(self, tmp_path, rng):
        # frames are written one at a time, but every field is checked first
        frames = [random_frame(rng) for _ in range(3)]
        frames.append(dataclasses.replace(frames[0], rssi_dbm=200.0))
        path = tmp_path / "x.wcap"
        with pytest.raises(FrameFormatError, match="rssi_dbm=200 does not fit"):
            write_capture(path, iter(frames))
        assert not path.exists()

    def test_frame_count_is_the_header_count_or_what_the_file_can_hold(self, tmp_path, rng):
        path = tmp_path / "x.wcap"
        # the smallest valid frames: 1 x 1 antennas on the 52 subcarriers of 20 MHz
        write_capture(path, [random_frame(rng, 1, 1, 20) for _ in range(5)])
        assert codec.capture_frame_count(path) == 5
        raw = path.read_bytes()
        path.write_bytes(raw[:8] + (2 ** 40).to_bytes(8, "little") + raw[16:])
        assert codec.capture_frame_count(path) == 5
        path.write_bytes(raw[:8] + (2 ** 40).to_bytes(8, "little"))
        assert codec.capture_frame_count(path) == 0
        path.write_bytes(b"NOPE" + raw[4:])
        with pytest.raises(CaptureFormatError):
            codec.capture_frame_count(path)

    def test_empty_capture(self, tmp_path):
        path = tmp_path / "empty.wcap"
        write_capture(path, [])
        assert read_capture(path) == []

    def test_concatenated_frame_sections(self, tmp_path, rng):
        frames_a = [random_frame(rng) for _ in range(3)]
        frames_b = [random_frame(rng) for _ in range(2)]
        pa, pb = tmp_path / "a.wcap", tmp_path / "b.wcap"
        write_capture(pa, frames_a)
        write_capture(pb, frames_b)
        raw_a, raw_b = pa.read_bytes(), pb.read_bytes()
        merged = tmp_path / "m.wcap"
        import struct

        header = struct.pack("<4sIQ", b"WCAP", 1, 5)
        merged.write_bytes(header + raw_a[16:] + raw_b[16:])
        assert read_capture(merged) == frames_a + frames_b

    def test_mid_file_truncation_yields_prefix(self, tmp_path, rng):
        frames = [random_frame(rng) for _ in range(5)]
        path = tmp_path / "t.wcap"
        write_capture(path, frames)
        raw = path.read_bytes()
        cut = tmp_path / "cut.wcap"
        cut.write_bytes(raw[: len(raw) - 10])
        decoded = []
        with pytest.raises(CaptureTruncatedError):
            for frame in ingest(ingest_capture_blocks, cut):
                decoded.append(frame)
        assert decoded == frames[:4]

    def test_corrupt_header(self, tmp_path):
        path = tmp_path / "bad.wcap"
        path.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(CaptureFormatError):
            read_capture(path)

    def test_trailing_garbage_rejected(self, tmp_path, rng):
        path = tmp_path / "g.wcap"
        write_capture(path, [random_frame(rng)])
        with open(path, "ab") as fh:
            fh.write(b"\xff")
        with pytest.raises(CaptureFormatError):
            read_capture(path)


class TestIngest:
    def test_all_pass_filter_passes_everything(self, rng):
        frames = [random_frame(rng) for _ in range(10)]
        stats = IngestStats()
        out = list(ingest(ingest_stream_blocks, (encode_frame(f) for f in frames),
                          stats=stats))
        assert out == frames
        assert stats.delivered == 10

    def test_rssi_floor(self, rng):
        frame = random_frame(rng)
        frame.rssi_dbm = -70.0
        stats = IngestStats()
        out = list(ingest(ingest_stream_blocks, [encode_frame(frame)], rssi_floor_dbm=-65.0,
                          stats=stats))
        assert out == [] and stats.dropped_rssi == 1

    def test_mac_allow_list(self, rng):
        keep = random_frame(rng)
        drop = random_frame(rng)
        drop.source_mac = bytes(6)
        stats = IngestStats()
        out = list(ingest(ingest_stream_blocks, [encode_frame(keep), encode_frame(drop)],
                          mac_allow={keep.source_mac}, stats=stats))
        assert out == [keep] and stats.dropped_mac == 1

    def test_malformed_datagram_isolated(self, rng):
        good = [random_frame(rng) for _ in range(3)]
        datagrams = [encode_frame(good[0]), b"junk", encode_frame(good[1]),
                     b"", encode_frame(good[2])]
        stats = IngestStats()
        out = list(ingest(ingest_stream_blocks, datagrams, stats=stats))
        assert out == good
        assert stats.dropped_decode == 2

    def test_stream_without_stats_delivers_and_skips_a_malformed_datagram(self, rng):
        good = [random_frame(rng) for _ in range(3)]
        datagrams = [encode_frame(good[0]), b"junk", encode_frame(good[1]), encode_frame(good[2])]
        blocks = list(ingest_stream_blocks(datagrams))
        assert [len(block) for block in blocks] == [1, 1, 1]
        assert [block.frame(0) for block in blocks] == good

    def test_order_preserved(self, rng):
        frames = [random_frame(rng) for _ in range(25)]
        out = list(ingest(ingest_stream_blocks, [encode_frame(f) for f in frames]))
        assert [f.seq for f in out] == [f.seq for f in frames]

    def test_filter_frames_counts_like_ingest(self, rng):
        frames = [random_frame(rng) for _ in range(30)]
        for f in frames[::4]:
            f.source_mac = bytes(6)
        for f in frames[1::5]:
            f.rssi_dbm = -90.0
        allow = {f.source_mac for f in frames} - {bytes(6)}
        datagrams = [encode_frame(f) for f in frames]
        datagrams[7:7] = [b"junk", b""]
        by_bytes, by_frame = IngestStats(), IngestStats()
        out_bytes = list(ingest(ingest_stream_blocks, datagrams, mac_allow=allow,
                                rssi_floor_dbm=-80.0, stats=by_bytes))
        out_frames = list(filter_frames(frames, mac_allow=allow, rssi_floor_dbm=-80.0,
                                        stats=by_frame))
        assert out_frames == out_bytes
        assert by_bytes == IngestStats(received=32, delivered=len(out_frames),
                                       dropped_decode=2, dropped_mac=by_frame.dropped_mac,
                                       dropped_rssi=by_frame.dropped_rssi)
        assert by_frame.received == 30 and by_frame.dropped_decode == 0
        assert by_frame.delivered + by_frame.dropped_mac + by_frame.dropped_rssi == 30
        assert by_frame.dropped_mac > 0 and by_frame.dropped_rssi > 0

    @pytest.mark.parametrize("dropped_by", ["mac", "rssi"])
    def test_filtered_datagram_with_nan_payload_is_undecodable(self, rng, dropped_by):
        frames = [random_frame(rng) for _ in range(3)]
        for f in frames:
            f.rssi_dbm = -50.0
        if dropped_by == "mac":
            frames[1].source_mac = bytes(6)
        else:
            frames[1].rssi_dbm = -90.0
        datagrams = [encode_frame(f) for f in frames]
        datagrams[1] = (datagrams[1][:HEADER_SIZE] + np.float32(np.nan).tobytes()
                        + datagrams[1][HEADER_SIZE + 4:])
        stats = IngestStats()
        out = list(ingest(ingest_stream_blocks, datagrams,
                          mac_allow={frames[0].source_mac, frames[2].source_mac},
                          rssi_floor_dbm=-80.0, stats=stats))
        assert out == [frames[0], frames[2]]
        assert stats == IngestStats(received=3, delivered=2, dropped_decode=1)

    def test_ingest_capture_is_filter_frames_over_read_capture(self, tmp_path, rng):
        frames = [random_frame(rng) for _ in range(30)]
        for f in frames[::4]:
            f.source_mac = bytes(6)
        for f in frames[1::5]:
            f.rssi_dbm = -90.0
        allow = {f.source_mac for f in frames} - {bytes(6)}
        path = tmp_path / "mixed.wcap"
        write_capture(path, frames)
        by_header, by_frame = IngestStats(), IngestStats()
        out = list(ingest(ingest_capture_blocks, path, allow, -80.0, by_header))
        assert out == list(filter_frames(read_capture(path), allow, -80.0, by_frame))
        assert by_header == by_frame and by_frame.dropped_mac and by_frame.dropped_rssi
        assert all(not f.csi.flags.writeable for f in out)


    def test_filtered_capture_frames_are_decode_frame_of_each_kept_record(self, tmp_path, rng):
        # runs of one shape and of mixed shapes, with dropped records among
        # them, over several REPLAY_BLOCK-record ingest blocks
        same = [random_frame(rng, n_rx=4, n_tx=1, bandwidth=80) for _ in range(50)]
        frames = same[:25] + [random_frame(rng) for _ in range(60)] + same[25:]
        macs = [bytes(6), bytes.fromhex("020000000001"), bytes.fromhex("020000000002")]
        for frame in frames:
            frame.source_mac = macs[int(rng.integers(0, 3))]
        records = [encode_frame(f) for f in frames]
        path = tmp_path / "mixed.wcap"
        write_capture(path, frames)
        allow, floor = set(macs[1:]), -60.0
        decoded = [decode_frame(buf) for buf in records]
        expected = [f for f in decoded if f.source_mac in allow and f.rssi_dbm >= floor]
        stats = IngestStats()
        got = list(ingest(ingest_capture_blocks, path, allow, floor, stats))
        assert len(expected) > 2 * codec.REPLAY_BLOCK // 3 and len(got) == len(expected)
        for g, e in zip(got, expected):
            assert g.csi.dtype == e.csi.dtype and g.csi.shape == e.csi.shape
            assert g.csi.tobytes() == e.csi.tobytes()
            assert (g.rssi_dbm, g.source_mac, g.seq, g.chanspec, g.timestamp_ns) == (
                e.rssi_dbm, e.source_mac, e.seq, e.chanspec, e.timestamp_ns)
            assert type(g.rssi_dbm) is float and not g.csi.flags.writeable
        held = {}  # the buffers the frames keep alive: no dropped record's payload
        for g in got:
            base = g.csi
            while isinstance(base, np.ndarray):
                base = base.base
            held[id(base)] = len(base)
        assert sum(held.values()) <= sum(len(encode_frame(e)) for e in expected)
        assert stats == IngestStats(
            received=len(frames), delivered=len(expected),
            dropped_mac=sum(f.source_mac not in allow for f in decoded),
            dropped_rssi=sum(f.source_mac in allow and f.rssi_dbm < floor for f in decoded))


class TestUdp:
    def test_loopback_datagrams(self, rng):
        frames = [random_frame(rng) for _ in range(4)]
        port = 56155
        receiver = udp_datagrams(port=port, host="127.0.0.1",
                                 max_datagrams=4, timeout_s=5.0)
        sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            import threading

            got: list[bytes] = []

            def recv():
                got.extend(receiver)

            thread = threading.Thread(target=recv)
            thread.start()
            import time

            time.sleep(0.1)
            for f in frames:
                sender.sendto(encode_frame(f), ("127.0.0.1", port))
            thread.join(timeout=5.0)
            assert [decode_frame(b) for b in got] == frames
        finally:
            sender.close()


    def test_datagram_longer_than_any_frame_is_cut_one_byte_past_it(self, rng):
        largest = encode_frame(random_frame(rng, n_rx=4, n_tx=4, bandwidth=80))
        assert len(largest) == 29984
        probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        receiver = udp_datagrams(port=port, host="127.0.0.1", max_datagrams=2, timeout_s=5.0)
        sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            import threading
            import time

            got: list[bytes] = []
            thread = threading.Thread(target=lambda: got.extend(receiver))
            thread.start()
            time.sleep(0.1)
            for buf in (largest, largest + bytes(10_000)):
                sender.sendto(buf, ("127.0.0.1", port))
            thread.join(timeout=5.0)
        finally:
            sender.close()
        assert not thread.is_alive()
        assert got[0] == largest and got[1] == largest + b"\0"
        with pytest.raises(FrameFormatError, match="1 trailing bytes"):
            decode_frame(got[1])


class TestGoldenBytes:
    def test_wire_layout_locked(self):
        # hand-written expected bytes: guards the layout against drift
        csi = np.zeros((1, 1, 52), np.complex64)
        csi[0, 0, 0] = 1.5 - 2.5j
        frame = CsiFrame(csi=csi, rssi_dbm=-42.0,
                         source_mac=bytes([1, 2, 3, 4, 5, 6]), seq=7,
                         chanspec=ChannelSpec(36, 20),
                         timestamp_ns=0x0102030405060708)
        header_hex = (
            "49534357"            # magic 0x57435349, little-endian
            "01" "01" "01" "14"   # version, n_rx, n_tx, bandwidth 20
            "2400"                # channel 36
            "0700"                # seq 7
            "d6"                  # rssi -42 (i8)
            "00"                  # pad
            "3400"                # n_sub 52
            "010203040506"        # mac
            "0000"                # reserved
            "0807060504030201"    # timestamp, little-endian
        )
        first_pair_hex = "0000c03f" "000020c0"  # 1.5f, -2.5f
        wire = encode_frame(frame)
        assert wire[:32].hex() == header_hex
        assert wire[32:40].hex() == first_pair_hex
        assert wire[40:] == bytes(8 * 51)


def test_capture_length_prefix_past_the_largest_frame(tmp_path, rng):
    largest = encode_frame(random_frame(rng, n_rx=4, n_tx=4, bandwidth=80))
    path = tmp_path / "one.wcap"
    write_capture(path, [decode_frame(largest)])
    assert len(read_capture(path)) == 1
    raw = bytearray(path.read_bytes() + b"\0")
    raw[16:20] = (len(largest) + 1).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(CaptureTruncatedError, match="implausible length 29985"):
        read_capture(path)


def test_capture_implausible_length_prefix(tmp_path, rng):
    frames = [random_frame(rng) for _ in range(2)]
    path = tmp_path / "big.wcap"
    write_capture(path, frames)
    raw = bytearray(path.read_bytes())
    raw[16:20] = (2**31).to_bytes(4, "little")  # first frame's length prefix
    bad = tmp_path / "corrupt.wcap"
    bad.write_bytes(bytes(raw))
    with pytest.raises(CaptureTruncatedError):
        read_capture(bad)
