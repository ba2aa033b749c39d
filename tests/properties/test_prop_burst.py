"""Property tests pinning the burst engine to the singular paths.

Two pinned equivalences:

* ``Network.transmit_burst`` must be *logically* event-for-event
  equivalent to N single ``transmit`` calls under a fixed seed — same
  sequence-number consumption, same delivery order and bytes, same loss
  draws, captures and counters — even though the heap-entry shape differs
  (same-instant groups coalesce into one burst entry).  Its seeded
  worlds and generated send plans are shared with the fault properties
  (``test_prop_faults``).
* The burst's flat checksum verify must accept/reject exactly the
  packets the scalar word-sum fold accepts/rejects, byte-for-byte.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.burst import DeliveryBurst
from repro.netsim.capture import PacketCapture
from repro.netsim.packet import IPProtocol, IPv4Packet
from repro.netsim.simulator import Simulator
from repro.netsim.network import Link, Network
from repro.netsim.udp import UDPDatagram, encode_udp, udp_checksum_arith

HOST_IPS = ("10.0.0.1", "10.0.0.2", "10.0.0.3")
UNKNOWN_IP = "172.16.0.9"


def build_world(loss: float):
    simulator = Simulator(seed=11)
    network = Network(simulator, default_latency=0.01)
    hosts = {}
    received = []
    for ip in HOST_IPS:
        host = network.add_host(f"h-{ip}", ip)
        host.bind(53, lambda payload, src, port, _ip=ip: received.append((_ip, payload, src, port)))
        hosts[ip] = host
    if loss:
        network.set_link(HOST_IPS[0], HOST_IPS[1], Link(latency=0.01, loss_probability=loss))
    capture = PacketCapture(name="prop")
    network.attach_capture(capture)
    return simulator, network, received, capture


#: One generated "send": (src index, dst index-or-unknown, payload length,
#: corrupt checksum?, fragmented?, spoofed inject?).
sends = st.tuples(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=120),
    st.booleans(),
    st.booleans(),
    st.booleans(),
)


def build_packets(plan) -> list[tuple[IPv4Packet, bool]]:
    """Materialise one (packet, spoofed?) list from a generated plan.

    Fragmented sends become two-fragment trains sharing an IPID, so the
    defrag path (bucket creation, reassembly, spoofed-fragment counting)
    is exercised by both delivery shapes.
    """
    packets: list[tuple[IPv4Packet, bool]] = []
    for index, (src_i, dst_i, size, corrupt, fragment, spoof) in enumerate(plan):
        src = HOST_IPS[src_i]
        dst = UNKNOWN_IP if dst_i == 3 else HOST_IPS[dst_i]
        body = bytes((index + offset) & 0xFF for offset in range(size))
        checksum_src = "9.9.9.9" if corrupt else src
        payload = encode_udp(checksum_src, dst, UDPDatagram(4000, 53, body))
        ipid = index & 0xFFFF
        if fragment and len(payload) >= 16:
            boundary = (len(payload) // 2) & ~0x7
            if boundary >= 8:
                first = IPv4Packet(
                    src=src,
                    dst=dst,
                    protocol=IPProtocol.UDP,
                    payload=payload[:boundary],
                    ipid=ipid,
                    more_fragments=True,
                )
                second = IPv4Packet(
                    src=src,
                    dst=dst,
                    protocol=IPProtocol.UDP,
                    payload=payload[boundary:],
                    ipid=ipid,
                    fragment_offset=boundary // 8,
                )
                packets.append((first, spoof))
                packets.append((second, spoof))
                continue
        packets.append(
            (
                IPv4Packet.udp(src, dst, payload, ipid),
                spoof,
            )
        )
    return packets


def observable_state(simulator, network, received, capture, hosts_of):
    return {
        "received": list(received),
        "now": simulator.now,
        "sequence": simulator._sequence,
        "events_processed": simulator.events_processed,
        "transmitted": network.packets_transmitted,
        "dropped": network.packets_dropped,
        "captured": [
            (c.time, c.packet.src, c.packet.dst, c.packet.payload, c.packet.ipid)
            for c in capture.packets
        ],
        "host_stats": [
            (
                host.stats.udp_received,
                host.stats.udp_checksum_failures,
                host.defrag.stats.fragments_received,
                host.defrag.stats.packets_reassembled,
                host.defrag.stats.spoofed_fragments_used,
            )
            for host in hosts_of()
        ],
    }


class TestTransmitBurstEquivalence:
    @given(st.lists(sends, min_size=1, max_size=25), st.sampled_from([0.0, 0.35]))
    @settings(max_examples=60, deadline=None)
    def test_burst_is_logically_equivalent_to_singles(self, plan, loss):
        # World A: N singular transmit/inject calls.
        sim_a, net_a, recv_a, cap_a = build_world(loss)
        for packet, spoof in build_packets(plan):
            if spoof:
                net_a.inject(packet)
            else:
                net_a.transmit(packet)
        sim_a.run()
        state_a = observable_state(sim_a, net_a, recv_a, cap_a, net_a.hosts)

        # World B: the same interleaving through the burst engine, split
        # into one inject_burst (spoofed) per contiguous run to preserve
        # ordering exactly as the singular calls produced it.
        sim_b, net_b, recv_b, cap_b = build_world(loss)
        pending: list[IPv4Packet] = []
        pending_spoof: bool | None = None

        def flush():
            nonlocal pending, pending_spoof
            if not pending:
                return
            if pending_spoof:
                net_b.inject_burst(pending)
            else:
                net_b.transmit_burst(pending)
            pending = []
            pending_spoof = None

        for packet, spoof in build_packets(plan):
            if pending_spoof is not None and spoof != pending_spoof:
                flush()
            pending.append(packet)
            pending_spoof = spoof
        flush()
        sim_b.run()
        state_b = observable_state(sim_b, net_b, recv_b, cap_b, net_b.hosts)

        assert state_a == state_b


# ---------------------------------------------------------- burst checksums
def burst_world(count: int, corrupt_mask: int, payload_seed: int):
    """A star topology: one sender, ``count`` receivers, crafted packets."""
    simulator = Simulator(seed=3)
    network = Network(simulator)
    src = "10.9.9.1"
    network.add_host("sender", src)
    items = []
    for index in range(count):
        dst = f"10.9.10.{index + 1}"
        network.add_host(f"r{index}", dst)
        body = bytes(
            (payload_seed + index * 7 + offset) & 0xFF
            for offset in range((payload_seed + index) % 64)
        )
        checksum_src = "9.9.9.9" if corrupt_mask & (1 << index) else src
        payload = encode_udp(checksum_src, dst, UDPDatagram(4000, 53, body))
        packet = IPv4Packet.udp(src, dst, payload, index & 0xFFFF)
        items.append((network.pipeline_for(src, dst), packet))
    return items


class TestBurstChecksumPinnedToScalar:
    @given(
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=0, max_value=0xFFF),
        st.integers(min_value=0, max_value=255),
    )
    @settings(max_examples=120, deadline=None)
    def test_flat_pass_matches_scalar_word_sum(self, count, corrupt_mask, seed):
        items = burst_world(count, corrupt_mask, seed)
        parsed = DeliveryBurst._vector_verify(items)
        if parsed is None:
            # Nothing verified (e.g. every checksum corrupted): treated as
            # all-scalar dispatch, i.e. an all-None parsed list.
            parsed = [None] * len(items)
        for (pipeline, packet), info in zip(items, parsed):
            data = packet.payload
            src_port = int.from_bytes(data[0:2], "big")
            dst_port = int.from_bytes(data[2:4], "big")
            checksum = int.from_bytes(data[6:8], "big")
            expected_ok = checksum == 0 or checksum == udp_checksum_arith(
                packet.src, packet.dst, src_port, dst_port, data[8:]
            )
            if expected_ok:
                assert info == (src_port, dst_port)
            else:
                assert info is None
