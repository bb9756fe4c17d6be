"""Tests for the routing packet type."""

import pytest

from repro.core.packets import MessagePacket


class TestMessagePacket:
    def test_fields(self):
        p = MessagePacket(3, b"abc")
        assert p.index == 3 and p.payload == b"abc"

    def test_default_payload(self):
        assert MessagePacket(0).payload == b""

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            MessagePacket(-1)

    def test_frozen_and_hashable(self):
        p = MessagePacket(1)
        with pytest.raises(AttributeError):
            p.index = 2  # type: ignore[misc]
        assert hash(MessagePacket(1)) == hash(MessagePacket(1))

    def test_equality(self):
        assert MessagePacket(2, b"x") == MessagePacket(2, b"x")
        assert MessagePacket(2) != MessagePacket(3)
