"""Round-trip tests for the control-plane binary codec."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.control import (
    MAX_COMPLETE_WINDOW,
    ControlFormatError,
    DataHello,
    GenerationsComplete,
    PeerLocator,
    SessionInfo,
    decode_control,
    encode_control,
)
from repro.protocol.messages import (
    ComplaintMsg,
    CongestionDrop,
    CongestionRestore,
    JoinGrant,
    JoinRequest,
    KeepAlive,
    LeaveRequest,
    Probe,
    ProbeAck,
    SetParent,
    ThreadRemoved,
)

SAMPLES = [
    JoinRequest(reply_to=40301),
    LeaveRequest(node_id=17),
    SetParent(column=65535, parent=-1),
    KeepAlive(column=2, sender=-1),
    CongestionDrop(node_id=4),
    CongestionRestore(node_id=4),
    ThreadRemoved(column=11),
    ComplaintMsg(reporter=5, column=1, suspect=2),
    Probe(nonce=2**40),
    ProbeAck(node_id=3, nonce=2**40),
    JoinGrant(node_id=7, assignments=((0, -1), (3, 2))),
    JoinGrant(node_id=0, assignments=()),
    SessionInfo(generation_size=16, payload_size=1024, generation_count=40,
                content_length=640_000, k=32, d=3),
    PeerLocator(node_id=12, host="127.0.0.1", port=40301),
    PeerLocator(node_id=1, host="2001:db8::1", port=1),
    DataHello(node_id=8, column=5),
    GenerationsComplete(base=0),
    GenerationsComplete(base=40, extras=(41, 48, 49, 40 + MAX_COMPLETE_WINDOW)),
    GenerationsComplete(base=2**32 - 1),
]


class TestRoundtrip:
    @pytest.mark.parametrize("message", SAMPLES, ids=lambda m: type(m).__name__)
    def test_roundtrip(self, message):
        assert decode_control(encode_control(message)) == message

    @settings(max_examples=50, deadline=None)
    @given(
        node_id=st.integers(min_value=0, max_value=2**31 - 1),
        assignments=st.lists(
            st.tuples(st.integers(min_value=0, max_value=65535),
                      st.integers(min_value=-1, max_value=2**31 - 1)),
            max_size=16,
        ),
    )
    def test_grant_roundtrip(self, node_id, assignments):
        grant = JoinGrant(node_id=node_id, assignments=tuple(assignments))
        assert decode_control(encode_control(grant)) == grant

    @settings(max_examples=50, deadline=None)
    @given(
        node_id=st.integers(min_value=-1, max_value=2**31 - 1),
        host=st.text(min_size=1, max_size=60),
        port=st.integers(min_value=0, max_value=65535),
    )
    def test_locator_roundtrip(self, node_id, host, port):
        locator = PeerLocator(node_id=node_id, host=host, port=port)
        assert decode_control(encode_control(locator)) == locator


class TestErrors:
    def test_empty_frame(self):
        with pytest.raises(ControlFormatError):
            decode_control(b"")

    def test_unknown_type_byte(self):
        with pytest.raises(ControlFormatError):
            decode_control(b"\xfe\x00\x00")

    @pytest.mark.parametrize("frame", [b"\x03" + bytes(6), b"\x04" + bytes(2)],
                             ids=["0x03", "0x04"])
    def test_retired_type_byte_rejected(self, frame):
        """The two retired server-to-parent types are format errors, not
        messages to ignore: a node speaking the old protocol has its
        connection closed."""
        with pytest.raises(ControlFormatError, match="unknown control type"):
            decode_control(frame)

    def test_truncated_body(self):
        frame = encode_control(SetParent(column=1, parent=2))
        with pytest.raises(ControlFormatError):
            decode_control(frame[:-1])

    def test_trailing_garbage(self):
        frame = encode_control(LeaveRequest(node_id=1))
        with pytest.raises(ControlFormatError):
            decode_control(frame + b"\x00")

    def test_grant_count_mismatch(self):
        frame = bytearray(encode_control(JoinGrant(node_id=1,
                                                   assignments=((0, 1),))))
        frame[5:7] = (2).to_bytes(2, "big")  # claim two assignments
        with pytest.raises(ControlFormatError):
            decode_control(bytes(frame))

    def test_oversized_host_rejected(self):
        with pytest.raises(ControlFormatError):
            encode_control(PeerLocator(node_id=1, host="x" * 300, port=1))

    def test_in_order_report_is_five_bytes_whatever_the_base(self):
        for base in (0, 7, 2**31):
            assert len(encode_control(GenerationsComplete(base))) == 5

    def test_report_extras_past_the_window_are_left_out(self):
        """Under-reporting is safe; a record that cannot be parsed is
        not.  The encoder drops what the decoder would refuse."""
        far = GenerationsComplete(3, (5, 4 + MAX_COMPLETE_WINDOW))
        assert decode_control(encode_control(far)) == GenerationsComplete(3, (5,))

    def test_report_extra_not_above_its_base_rejected(self):
        with pytest.raises(ControlFormatError, match="not above"):
            encode_control(GenerationsComplete(3, (3,)))

    def test_report_must_be_canonical(self):
        """One encoding per set (what lets random bytes round-trip): a
        bitmap never ends in a zero byte, and never exceeds the window."""
        frame = encode_control(GenerationsComplete(1, (2,)))
        with pytest.raises(ControlFormatError, match="zero byte"):
            decode_control(frame + b"\x00")
        with pytest.raises(ControlFormatError, match="window"):
            decode_control(
                frame + bytes(MAX_COMPLETE_WINDOW // 8 - 1) + b"\x01")
        with pytest.raises(ControlFormatError):
            decode_control(frame[:3])  # truncated inside the base

    def test_unregistered_message_rejected(self):
        with pytest.raises(ControlFormatError):
            encode_control(object())

    @settings(max_examples=150, deadline=None)
    @given(frame=st.binary(min_size=0, max_size=80))
    def test_random_bytes_never_crash(self, frame):
        """Arbitrary bytes either decode or raise ControlFormatError."""
        try:
            message = decode_control(frame)
        except ControlFormatError:
            return
        assert encode_control(message) == frame
