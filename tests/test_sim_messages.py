"""Tests for the message data model."""

from dataclasses import fields

from repro.obs.bus import EventBus
from repro.sim.messages import Message, reset_message_ids, set_message_trace


class TestMessage:
    def test_unique_ids(self):
        a = Message(kind="x", src=1, dst=2, created_at=0.0)
        b = Message(kind="x", src=1, dst=2, created_at=0.0)
        assert a.msg_id != b.msg_id

    def test_copy_shares_msg_id_new_copy_id(self):
        original = Message(kind="x", src=1, dst=2, created_at=0.0, payload={"k": 1})
        duplicate = original.copy()
        assert duplicate.msg_id == original.msg_id
        assert duplicate.copy_id != original.copy_id

    def test_copy_payload_is_independent(self):
        original = Message(kind="x", src=1, dst=2, created_at=0.0, payload={"k": 1})
        duplicate = original.copy()
        duplicate.payload["k"] = 2
        assert original.payload["k"] == 1

    def test_copy_preserves_fields(self):
        original = Message(
            kind="refresh", src=3, dst=9, created_at=5.0, size=512,
            ttl=100.0, hops_left=4,
        )
        original.hop_count = 2
        duplicate = original.copy()
        assert duplicate.kind == "refresh"
        assert duplicate.src == 3
        assert duplicate.dst == 9
        assert duplicate.size == 512
        assert duplicate.ttl == 100.0
        assert duplicate.hops_left == 4
        assert duplicate.hop_count == 2
        # copy() bypasses __init__, so a new field must be copied by hand
        assert [
            getattr(duplicate, f.name) for f in fields(Message) if f.name != "copy_id"
        ] == [getattr(original, f.name) for f in fields(Message) if f.name != "copy_id"]

    def test_copy_emits_one_create_record(self):
        original = Message(kind="x", src=1, dst=2, created_at=7.0, size=99)
        bus = EventBus()
        set_message_trace(bus)
        try:
            duplicate = original.copy()
        finally:
            set_message_trace(None)
        assert len(bus.records) == 1
        record = bus.records[0]
        assert record.kind == "msg.create"
        assert (record.msg_id, record.copy_id) == (duplicate.msg_id, duplicate.copy_id)
        assert (record.time, record.msg_kind, record.src, record.dst, record.size) == (
            7.0, "x", 1, 2, 99,
        )

    def test_expiry(self):
        message = Message(kind="x", src=1, dst=2, created_at=10.0, ttl=5.0)
        assert not message.expired(14.9)
        assert message.expired(15.1)

    def test_no_ttl_never_expires(self):
        message = Message(kind="x", src=1, dst=2, created_at=0.0)
        assert not message.expired(1e12)

    def test_reset_ids(self):
        reset_message_ids()
        message = Message(kind="x", src=1, dst=2, created_at=0.0)
        assert message.msg_id == 1
