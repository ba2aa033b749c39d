"""Burst execution: batched delivery of same-instant packet bursts.

The paper's attacks are *flood-shaped*: an attacker emits dozens of
near-identical packets at one simulated instant (a spoofed-query round
across the victim's servers, an IPID fragment spray).  This module is the
delivery side of the burst engine (the event-loop side lives in
:mod:`repro.netsim.simulator`):

* :class:`DeliveryBurst` — the payload of one burst heap entry pushed by
  :meth:`repro.netsim.network.Network.transmit_burst`.  It stands for N
  delivery events at one instant (``count`` sequence numbers, ``count``
  towards ``events_processed``) and drains them in one ``run()``:

  1. **Flat checksum verify.**  Every unfragmented UDP packet on a
     pre-parse-eligible pair is parsed and its RFC 768 checksum verified
     in one loop, one big-int ``int.from_bytes % 0xFFFF`` fold per
     datagram — word-for-word the fold of the scalar verify in
     :meth:`repro.netsim.datapath.HostDatapath.deliver` (pinned by the
     burst checksum property test).
  2. **Pre-parsed dispatch.**  Verified packets skip the scalar header
     unpack/length/checksum work and run the body of
     :meth:`~repro.netsim.datapath.HostDatapath.deliver_parsed`, inlined
     into the drain, with the ports the verify pass read.  Every other
     packet (fragments, non-UDP, rejected checksums) takes the scalar
     :meth:`~repro.netsim.datapath.HostDatapath.deliver`, which derives
     and counts a failure exactly as singular delivery does.

Equivalence contract: a burst drain is *event-for-event* equivalent to the
per-packet deliveries it replaces — same delivery order, same stats and
defrag bookkeeping, same handler observations, same accept/reject per
checksum — pinned by ``tests/properties/test_prop_burst.py`` and the
fixed-seed golden determinism test.

Stage attribution: while ``repro.perf.STAGES`` collection is enabled, the
burst's grouping + flat-verify pass is attributed to the ``burst_drain``
stage and each verified packet goes through
:meth:`~repro.netsim.datapath.HostDatapath.deliver_parsed`, which times
its own stages; the ``checksum`` stage then counts only the scalar
verifies still performed packet-by-packet.
"""

from __future__ import annotations

from repro.netsim.packet import IPProtocol
from repro.netsim.sockets import ReceivedDatagram
from repro.netsim.udp import UDP_HEADER_LEN, _UDP_HEADER
from repro.perf import STAGES, perf_counter

_UNPACK_UDP_HEADER = _UDP_HEADER.unpack_from

#: Hard cap on packets per burst heap entry: bounds the latency of one
#: atomic drain (no event can run between its members) and the size of its
#: per-packet parse list.
MAX_DELIVERY_BURST = 4096

_UDP = IPProtocol.UDP


class DeliveryBurst:
    """N same-instant packet deliveries packed into one heap entry.

    ``items`` is a list of ``(pipeline, packet)`` pairs in delivery order;
    ``count`` is what the simulator adds to ``events_processed`` when the
    entry drains (one per packet, exactly as N singular entries would).
    """

    __slots__ = ("items", "count")

    def __init__(self, items: list) -> None:
        self.items = items
        self.count = len(items)

    # ------------------------------------------------------------- the drain
    def run(self) -> None:
        items = self.items
        timed = STAGES.enabled
        if timed:
            t0 = perf_counter()
        parsed = self._vector_verify(items)
        if timed:
            STAGES.add_many("burst_drain", perf_counter() - t0, len(items))
        if parsed is None:
            # Nothing verified: plain per-packet delivery, same order.
            for pipeline, packet in items:
                pipeline.deliver(packet)
            return
        for (pipeline, packet), info in zip(items, parsed):
            if info is None:
                pipeline.deliver(packet)
                continue
            src_port, dst_port = info
            datapath = pipeline.datapath
            if timed:
                datapath.deliver_parsed(packet, src_port, dst_port)
                continue
            # The untimed body of HostDatapath.deliver_parsed, inlined:
            # one call frame per packet is measurable across a Table II run.
            tap = datapath.host.packet_tap
            if tap is not None:
                tap(packet)
            if datapath.defrag_buckets:
                datapath.defrag.purge_expired(datapath.simulator._now)
            datapath.stats.udp_received += 1
            socket = datapath.sockets.get(dst_port)
            if socket is not None and not socket.closed:
                payload = packet.payload[8:]
                handler = socket.on_datagram
                if handler is not None:
                    handler(payload, packet.src, src_port)
                else:
                    socket.inbox.append(
                        ReceivedDatagram(
                            payload, packet.src, src_port, datapath.simulator._now
                        )
                    )

    # ------------------------------------------------------------ flat verify
    @staticmethod
    def _vector_verify(items: list):
        """One fused eligibility + parse + verify pass over the burst.

        Returns a per-item list where entry *i* is ``(src_port, dst_port)``
        if packet *i* was parsed and its checksum accepted, or ``None`` if
        packet *i* must take the scalar path (ineligible, or rejected — the
        scalar path re-derives the failure and counts it exactly as
        before).  Returns ``None`` outright when nothing verified.

        Each datagram is folded with one big-int ``int.from_bytes %
        0xFFFF``, which CPython's bignum kernel executes as a word sum.
        ``0xFFFF - folded`` equals the scalar path's double-special-cased
        complement for every ``folded`` in ``[0, 0xFFFE]`` (the modulo's
        range): at ``folded == 0`` both yield ``0xFFFF``, and the
        complement can never hit 0.
        """
        parsed: list = [None] * len(items)
        unpack = _UNPACK_UDP_HEADER
        any_verified = False
        for i, (pipeline, packet) in enumerate(items):
            # ``burst_parse`` bakes pre-parse eligibility at
            # pipeline-compile time, so eligibility costs one slot read
            # plus the packet-shape checks.
            if (
                not pipeline.burst_parse
                or packet.protocol is not _UDP
                or packet.more_fragments
                or packet.fragment_offset
            ):
                continue
            data = packet.payload
            size = len(data)
            if size < UDP_HEADER_LEN:
                continue
            src_port, dst_port, length, checksum = unpack(data)
            if length != size:
                continue
            if checksum:
                payload = data[UDP_HEADER_LEN:]
                if size & 1:
                    payload += b"\x00"
                folded = (
                    pipeline.addr_sum
                    + 17
                    + length
                    + length
                    + src_port
                    + dst_port
                    + int.from_bytes(payload, "big") % 0xFFFF
                ) % 0xFFFF
                if checksum != 0xFFFF - folded:
                    continue
            parsed[i] = (src_port, dst_port)
            any_verified = True
        return parsed if any_verified else None
