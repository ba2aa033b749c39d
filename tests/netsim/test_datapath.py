"""Tests for the compiled delivery pipelines, link verification,
burst delivery, unrouted destinations and pipeline stage attribution."""

import pytest

from repro.netsim.datapath import UNROUTED_PIPELINE
from repro.netsim.errors import NoRouteError
from repro.netsim.network import Link, Network, PIPELINE_CACHE_MAX_ENTRIES
from repro.netsim.packet import IPProtocol, IPv4Packet
from repro.netsim.simulator import Simulator
from repro.netsim.udp import UDPDatagram, encode_udp
from repro.perf import STAGES


def make_net():
    sim = Simulator(seed=7)
    net = Network(sim, default_latency=0.01)
    a = net.add_host("a", "10.0.0.1")
    b = net.add_host("b", "10.0.0.2")
    return sim, net, a, b


def corrupted_packet(src: str, dst: str) -> IPv4Packet:
    """A UDP packet whose checksum was computed for a different source."""
    datagram = UDPDatagram(src_port=53, dst_port=53, payload=b"forged")
    payload = encode_udp("9.9.9.9", dst, datagram)
    return IPv4Packet(src=src, dst=dst, protocol=IPProtocol.UDP, payload=payload)


class TestLinkProfiles:
    """Every link runs the full verification of the receiving datapath."""

    def test_default_link_drops_bad_checksum(self):
        sim, net, a, b = make_net()
        received = []
        b.bind(53, lambda payload, ip, port: received.append(payload))
        net.inject(corrupted_packet("10.0.0.1", "10.0.0.2"))
        sim.run()
        assert received == []
        assert b.stats.udp_checksum_failures == 1


class TestStrictRouting:
    """Transmitting to an unknown destination drops silently; only the
    pipeline lookup raises (see ``TestPipelineCache``)."""

    def test_default_network_silently_drops_unknown_destination(self):
        sim, net, a, _ = make_net()
        a.bind(0).sendto(b"x", "172.16.0.1", 53)
        sim.run()
        assert net.packets_dropped == 1


class TestPipelineCache:
    def test_pipeline_for_unknown_destination_raises(self):
        _, net, _, _ = make_net()
        with pytest.raises(NoRouteError):
            net.pipeline_for("10.0.0.1", "172.16.0.1")

    def test_pipeline_cached_and_reused(self):
        _, net, _, _ = make_net()
        first = net.pipeline_for("10.0.0.1", "10.0.0.2")
        assert net.pipeline_for("10.0.0.1", "10.0.0.2") is first

    def test_set_link_invalidates_compiled_pipeline(self):
        sim, net, a, b = make_net()
        arrivals = []
        b.bind(53, lambda payload, ip, port: arrivals.append(sim.now))
        a.bind(4000).sendto(b"x", "10.0.0.2", 53)
        sim.run()
        net.set_link("10.0.0.1", "10.0.0.2", Link(latency=0.5))
        a.bind(4001).sendto(b"x", "10.0.0.2", 53)
        sim.run()
        assert arrivals[0] == pytest.approx(0.01)
        # Second send left at t=0.01 over the re-compiled 0.5 s link.
        assert arrivals[1] == pytest.approx(0.51)

    def test_add_host_invalidates_unrouted_entry(self):
        sim, net, a, _ = make_net()
        a.bind(4000).sendto(b"x", "10.0.0.3", 53)
        sim.run()
        assert net.packets_dropped == 1
        # Register the host afterwards: the cached drop entry must not stick.
        c = net.add_host("c", "10.0.0.3")
        received = []
        c.bind(53, lambda payload, ip, port: received.append(payload))
        a.bind(4001).sendto(b"x", "10.0.0.3", 53)
        sim.run()
        assert received == [b"x"]

    def test_pipeline_cache_bounded(self):
        _, net, _, _ = make_net()
        limit = PIPELINE_CACHE_MAX_ENTRIES
        # Simulate a spoofing sweep over unique claimed sources.
        net._pipelines.clear()
        for index in range(limit + 10):
            net._compile_pipeline(f"src-{index}", "10.0.0.2")
        assert len(net._pipelines) <= limit

    def test_unrouted_pipeline_is_shared(self):
        _, net, _, _ = make_net()
        net._compile_pipeline("10.0.0.1", "172.16.0.9")
        assert net._pipelines[("10.0.0.1", "172.16.0.9")] is UNROUTED_PIPELINE

    def test_negative_latency_rejected(self):
        _, net, _, _ = make_net()
        from repro.netsim.errors import SimulationError

        with pytest.raises(SimulationError):
            net.set_link("10.0.0.1", "10.0.0.2", Link(latency=-0.1))


class TestBatchedDelivery:
    """Multi-packet delivery through the burst engine."""

    def _query_packet(self, src, dst, ipid):
        payload = encode_udp(src, dst, UDPDatagram(4000, 53, b"ping"))
        return IPv4Packet.udp(src, dst, payload, ipid)

    def test_transmit_batch_counts_and_delivers(self):
        sim, net, a, b = make_net()
        received = []
        b.bind(53, lambda payload, ip, port: received.append(payload))
        packets = [self._query_packet("10.0.0.1", "10.0.0.2", i) for i in range(8)]
        packets.append(self._query_packet("10.0.0.1", "172.16.0.1", 99))  # unrouted
        net.transmit_burst(packets)
        sim.run()
        assert received == [b"ping"] * 8
        assert net.packets_transmitted == 9
        assert net.packets_dropped == 1

    def test_inject_batch_marks_spoofed(self):
        sim, net, a, b = make_net()
        packets = [self._query_packet("10.0.0.1", "10.0.0.2", i) for i in range(3)]
        net.inject_burst(packets)
        assert all(p.metadata["spoofed"] for p in packets)
        assert net.packets_transmitted == 3


class TestStageAttribution:
    def test_pipeline_stages_counted_when_enabled(self):
        STAGES.reset()
        STAGES.enable()
        try:
            sim, net, a, b = make_net()
            received = []
            b.bind(53, lambda payload, ip, port: received.append(payload))
            a.bind(4000).sendto(b"hello", "10.0.0.2", 53)
            sim.run()
            snapshot = STAGES.snapshot(wall_time=1.0)
        finally:
            STAGES.disable()
            STAGES.reset()
        assert received == [b"hello"]
        stages = snapshot["stages"]
        for name in ("defrag", "checksum", "demux", "handler"):
            assert name in stages, stages
            assert stages[name]["calls"] >= 1
        shares = snapshot["shares"]
        assert "dispatch_other" in shares
        assert all(value >= 0 for value in shares.values())

    def test_stages_not_counted_when_disabled(self):
        STAGES.reset()
        sim, net, a, b = make_net()
        b.bind(53)
        a.bind(4000).sendto(b"hello", "10.0.0.2", 53)
        sim.run()
        times, _calls = STAGES.merged()
        assert "checksum" not in times
        STAGES.reset()

    def test_reset_keeps_hosts_built_before_it_attached(self):
        """STAGES.reset() after topology construction must not orphan the
        already-compiled datapaths: their stages still reach snapshots."""
        sim, net, a, b = make_net()
        b.bind(53, lambda payload, ip, port: None)
        STAGES.reset()  # after hosts exist — the manual-use flow
        STAGES.enable()
        try:
            a.bind(4000).sendto(b"hello", "10.0.0.2", 53)
            sim.run()
            snapshot = STAGES.snapshot(wall_time=1.0)
        finally:
            STAGES.disable()
            STAGES.reset()
        assert "checksum" in snapshot["stages"], snapshot["stages"]

    def test_stage_attribution_survives_gc_before_snapshot(self):
        """Host/datapath pairs are reference cycles; a cyclic-GC pass
        between simulation teardown and snapshot() must not drop the
        pipeline stage counters (STAGES pins sources while enabled)."""
        import gc

        STAGES.reset()
        STAGES.enable()
        try:
            def run_and_discard():
                sim, net, a, b = make_net()
                b.bind(53, lambda payload, ip, port: None)
                a.bind(4000).sendto(b"hello", "10.0.0.2", 53)
                sim.run()

            run_and_discard()
            gc.collect()  # the world is garbage now; attribution must not be
            snapshot = STAGES.snapshot(wall_time=1.0)
        finally:
            STAGES.disable()
            STAGES.reset()
        assert "checksum" in snapshot["stages"], snapshot["stages"]
        assert "handler" in snapshot["stages"]

    def test_instrumented_run_matches_uninstrumented_counters(self):
        def run(enable):
            STAGES.reset()
            if enable:
                STAGES.enable()
            try:
                sim, net, a, b = make_net()
                received = []
                b.bind(53, lambda payload, ip, port: received.append(payload))
                for index in range(10):
                    a.bind(0).sendto(b"x" * index, "10.0.0.2", 53)
                net.inject(corrupted_packet("10.0.0.1", "10.0.0.2"))
                # A same-instant spray to one receiver drains as one
                # delivery burst: handler and inbox-mode sockets, plus a
                # corrupted checksum the burst verify must hand back to
                # the scalar path.
                inbox = b.bind(54)
                spray = []
                for index in range(6):
                    port = 53 if index % 2 else 54
                    datagram = UDPDatagram(4000, port, b"burst-%d" % index)
                    payload = encode_udp("10.0.0.1", "10.0.0.2", datagram)
                    spray.append(IPv4Packet.udp("10.0.0.1", "10.0.0.2", payload, index))
                spray.insert(3, corrupted_packet("10.0.0.1", "10.0.0.2"))
                net.transmit_burst(spray)
                sim.run()
                return (
                    received,
                    b.stats.udp_received,
                    b.stats.udp_checksum_failures,
                    [(d.payload, d.src_ip, d.src_port, d.received_at) for d in inbox.inbox],
                )
            finally:
                STAGES.disable()
                STAGES.reset()

        assert run(False) == run(True)
