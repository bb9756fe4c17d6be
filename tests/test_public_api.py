"""The public API surface: everything advertised resolves and works."""

import pytest

import repro


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_quickstart_snippet(self):
        """The README / docstring quickstart must keep working verbatim."""
        from repro import FaultConfig, decay_broadcast, path

        outcome = decay_broadcast(
            path(64), faults=FaultConfig.receiver(0.3), rng=1
        )
        assert outcome.success
        assert outcome.rounds > 0


class TestChannelValidation:
    def test_invalid_broadcaster_rejected(self):
        from repro import Channel, FaultConfig, path
        from repro.core.errors import SimulationError
        from repro.core.packets import MessagePacket

        channel = Channel(path(3), FaultConfig.faultless(), rng=0)
        with pytest.raises(SimulationError):
            channel.transmit({99: MessagePacket(0)})
        with pytest.raises(SimulationError):
            channel.transmit({"a": MessagePacket(0)})  # type: ignore[dict-item]

    @pytest.mark.parametrize("contention", [False, True], ids=["default", "mac"])
    def test_node_ids_must_be_plain_ints(self, contention):
        """A bool is an int subclass, and numpy ints come out of arrays: a
        layer that keys actions by either is named, not resolved."""
        import numpy as np

        from repro import Channel, FaultConfig, path
        from repro.core.errors import SimulationError
        from repro.core.packets import MessagePacket
        from repro.mac.channel import ContentionChannel

        make = ContentionChannel if contention else Channel
        channel = make(path(3), FaultConfig.faultless(), rng=0)
        for node, type_name in ((True, "bool"), (np.int64(1), "int64")):
            with pytest.raises(SimulationError, match=f"of type {type_name}"):
                channel.transmit({node: MessagePacket(0)})
        assert channel.round_index == 0
        channel.transmit({1: MessagePacket(0)})
        assert channel.round_index == 1


class TestProtocolContract:
    def test_single_message_protocols_reject_foreign_packets(self):
        from repro.algorithms.decay import DecayProtocol
        from repro.core.errors import ProtocolError
        from repro.core.packets import RSPacket
        from repro.util.rng import RandomSource

        protocol = DecayProtocol(8, RandomSource(0))
        with pytest.raises(ProtocolError):
            protocol.on_receive(0, RSPacket(0), sender=1)


class TestErrorHierarchy:
    def test_all_domain_errors_derive_from_repro_error(self):
        from repro.core.errors import (
            BroadcastTimeout,
            ProtocolError,
            ReproError,
            SimulationError,
            TopologyError,
        )

        for error_type in (
            TopologyError,
            SimulationError,
            ProtocolError,
            BroadcastTimeout,
        ):
            assert issubclass(error_type, ReproError)

    def test_broadcast_timeout_carries_progress(self):
        from repro.core.errors import BroadcastTimeout

        error = BroadcastTimeout(rounds=100, informed=5, total=10)
        assert error.rounds == 100
        assert "5/10" in str(error)
