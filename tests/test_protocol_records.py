"""The record contract of the control plane.

Every control-plane record (message, event, effect, the coordination
server's grants and redirects, and the live transport's own messages)
is a :class:`~typing.NamedTuple`, and the hot paths build them with
``tuple.__new__(cls, fields)``.  That is only safe if the two ways of
building a record agree, if a record never reads as false (a fieldless
tuple would), and if the control codec returns each message as its own
type: tuple equality alone cannot tell ``SetParent(1, 2)`` from
``KeepAlive(1, 2)``.
"""

import numpy as np
import pytest

from repro.core import CoordinationServer, protocols
from repro.core.matrix import SERVER
from repro.net import control
from repro.net.control import MESSAGE_TYPES, decode_control, encode_control
from repro.protocol import ServerEngine, effects, events, messages

#: One sample's fields per record class, wire-valid for the messages.
FIELDS = {
    # protocol.messages
    messages.JoinRequest: (40301,),
    messages.JoinGrant: (7, ((0, SERVER), (3, 2))),
    messages.SetParent: (5, 2),
    messages.LeaveRequest: (17,),
    messages.KeepAlive: (2, SERVER),
    messages.CongestionDrop: (4,),
    messages.CongestionRestore: (4,),
    messages.ThreadRemoved: (11,),
    messages.ComplaintMsg: (5, 1, 2),
    messages.Probe: (2**40,),
    messages.ProbeAck: (3, 2**40),
    # protocol.effects
    effects.Send: (3, messages.SetParent(1, 2)),
    effects.StartTimer: (("probe", 3, 1), 0.5),
    effects.CloseConnection: (3,),
    effects.Admitted: (7, ((0, SERVER), (3, 2))),
    effects.ComplaintNoted: (3,),
    effects.PeerDeparted: (3, "crash"),
    effects.Clip: (1, 2),
    effects.StopThread: (1,),
    effects.Backoff: (1, 0.05),
    # protocol.events
    events.MessageReceived: (messages.LeaveRequest(3), 3),
    events.ConnectionLost: (3,),
    events.TimerFired: (("probe", 3, 1),),
    events.UpstreamDown: (1, 2, False),
    events.ServerLost: (),
    # core.protocols
    protocols.ThreadAssignment: (1, SERVER),
    protocols.HelloGrant: (
        7, (protocols.ThreadAssignment(1, 2),), (protocols.Redirect(1, 7, 4),)),
    protocols.Redirect: (1, 2, None),
    protocols.Complaint: (5, 1, 2),
    # net.control
    control.SessionInfo: (16, 1024, 40, 640_000, 32, 3),
    control.PeerLocator: (12, "127.0.0.1", 40301),
    control.DataHello: (8, 5),
    control.GenerationsComplete: (40, (41, 48)),
}

RECORDS = sorted(FIELDS, key=lambda cls: f"{cls.__module__}.{cls.__name__}")


def _name(cls: type) -> str:
    return cls.__name__


def test_every_record_class_has_a_sample():
    """The table above is the whole vocabulary: a record added to one
    of these modules must join it."""
    defined = {
        value for module in (messages, effects, events, protocols, control)
        for value in vars(module).values()
        if isinstance(value, type) and issubclass(value, tuple)
        and value.__module__ == module.__name__
    }
    assert defined == set(FIELDS)
    assert len(defined) == 33


@pytest.mark.parametrize("cls", RECORDS, ids=_name)
def test_record_is_truthy_and_hashable(cls):
    record = cls(*FIELDS[cls])
    assert record
    assert hash(record) == hash(cls(*FIELDS[cls]))


@pytest.mark.parametrize("cls", RECORDS, ids=_name)
def test_constructor_and_tuple_new_build_the_same_record(cls):
    built = cls(*FIELDS[cls])
    filled = tuple.__new__(cls, FIELDS[cls])
    assert type(filled) is cls
    assert filled == built
    assert repr(filled) == repr(built)


@pytest.mark.parametrize("cls", sorted(MESSAGE_TYPES, key=_name), ids=_name)
def test_message_comes_back_equal_and_of_its_own_type(cls):
    message = cls(*FIELDS[cls])
    decoded = decode_control(encode_control(message))
    assert type(decoded) is cls
    assert decoded == message


def test_grant_and_admitted_carry_plain_pairs():
    """The reprs the protocol goldens pin show ``(column, parent)``
    pairs, not ``ThreadAssignment`` records."""
    engine = ServerEngine(CoordinationServer(4, 2, np.random.default_rng(0)))
    admitted, send = engine.handle(events.MessageReceived(messages.JoinRequest(0)))
    for assignments in (admitted.assignments, send.message.assignments):
        assert assignments and all(type(pair) is tuple for pair in assignments)
    assert "ThreadAssignment" not in repr(admitted) + repr(send)
