"""Burst execution: vectorised delivery of same-instant packet bursts.

The paper's attacks are *flood-shaped*: an attacker emits dozens of
near-identical packets at one simulated instant (a spoofed-query round, an
IPID fragment spray), and after PR 3's compiled datapath the per-packet
costs that remain — one heap push + pop per delivery event, one scalar
ones'-complement verify per packet, one handler call per packet — are
exactly the costs that same-instant bursts make redundant.  This module is
the delivery side of the burst engine (the event-loop side lives in
:mod:`repro.netsim.simulator`, the limiter side in
:mod:`repro.ntp.rate_limit`):

* :class:`DeliveryBurst` — the payload of one burst heap entry pushed by
  :meth:`repro.netsim.network.Network.transmit_burst`.  It stands for N
  delivery events at one instant (``count`` sequence numbers, ``count``
  towards ``events_processed``) and drains them in one flat ``run()``:

  1. **Vectorised checksum verify.**  Unfragmented UDP packets are
     stacked into one wire buffer and their RFC 768
     checksums verified in a single numpy ``uint64`` word-sum pass —
     word-for-word the same fold as the scalar verify in
     :meth:`repro.netsim.datapath.HostDatapath.deliver` (pinned by the
     burst checksum property tests).  Heterogeneous bursts (mixed datagram
     sizes, fragments, non-UDP) fall back to the per-packet scalar path.
  2. **Pre-parsed dispatch.**  Verified packets skip the scalar header
     unpack/length/checksum work entirely and enter the datapath through
     :meth:`~repro.netsim.datapath.HostDatapath.deliver_parsed`, with the
     ports read off the vector columns.
  3. **Run handoff.**  A consecutive run of verified packets sharing one
     destination flow (same datapath, same source address and ports) is
     offered to the destination socket's opt-in burst handler
     (:attr:`~repro.netsim.sockets.UDPSocket.on_datagram_burst`) as one
     call — this is what lets the NTP server absorb a spoofed flood
     through :meth:`~repro.ntp.rate_limit.RateLimiter.consume_burst`
     instead of N per-query handler calls.

Equivalence contract: a burst drain is *event-for-event* equivalent to the
per-packet deliveries it replaces — same delivery order, same stats and
defrag bookkeeping, same handler observations, same accept/reject per
checksum — pinned by ``tests/properties/test_prop_burst.py`` and the
fixed-seed golden determinism test.

Stage attribution: while ``repro.perf.STAGES`` collection is enabled, the
burst's grouping + vector-verify overhead is attributed to the
``burst_drain`` stage and the per-packet deliveries route through the
datapath's timed twins as usual; the ``checksum`` stage then counts only
the scalar verifies still performed packet-by-packet.

Buffer bounds: one burst entry covers at most :data:`MAX_DELIVERY_BURST`
packets (the network's transmit splits larger same-instant groups into
consecutive entries, preserving order), so the stacked verify buffer is
bounded at ~6 MB even for MTU-sized floods.
"""

from __future__ import annotations

import numpy as np

from repro.netsim.packet import IPProtocol
from repro.netsim.sockets import ReceivedDatagram
from repro.netsim.udp import UDP_HEADER_LEN, _UDP_HEADER
from repro.perf import STAGES, perf_counter

_UNPACK_UDP_HEADER = _UDP_HEADER.unpack_from

#: Hard cap on packets per burst heap entry: bounds the stacked wire buffer
#: (4096 × 1500 B ≈ 6 MB) and the latency of one atomic drain.
MAX_DELIVERY_BURST = 4096

#: Burst size from which the numpy stacked-buffer pass replaces the flat
#: arithmetic pass.  The flat pass folds each datagram with one big-int
#: ``int.from_bytes % 0xFFFF`` — effectively a vectorised word sum executed
#: by CPython's bignum kernel — so numpy's fixed per-kernel launch cost
#: (~15 µs × ~10 kernels on the dev box) only amortises for bursts in the
#: four-digit range; measured crossover was ≈2k packets for 56 B datagrams
#: and stayed above 512 even at MTU size.
NUMPY_VERIFY_MIN = 1024

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
            # Nothing vectorisable: plain per-packet delivery, same order.
            for pipeline, packet in items:
                pipeline.deliver(packet)
            return
        n = len(items)
        index = 0
        while index < n:
            pipeline, packet = items[index]
            info = parsed[index]
            if info is None:
                pipeline.deliver(packet)
                index += 1
                continue
            src_port, dst_port = info
            datapath = pipeline.datapath
            # Run detection: consecutive verified packets sharing one
            # destination flow.  The common spray shape (one packet per
            # destination) fails the datapath identity compare and costs
            # one pointer check per packet.  The handoff disqualifiers
            # (tap installed, no live socket, no burst handler — the same
            # guards deliver_run re-checks) are probed *before* scanning,
            # so a long refused run costs O(1) per packet instead of a
            # rescan-per-index.  Instrumented runs skip the handoff: the
            # timed per-packet twins attribute demux/handler time the
            # one-call burst handler would hide (the two shapes are
            # equivalence-pinned, so results are identical either way).
            end = index + 1
            if not timed and end < n and items[end][0].datapath is datapath:
                socket = (
                    None
                    if datapath.host.packet_tap is not None
                    else datapath.sockets.get(dst_port)
                )
                if (
                    socket is not None
                    and not socket.closed
                    and socket.on_datagram_burst is not None
                    and socket.on_datagram is not None  # inbox mode queues per packet
                ):
                    src = packet.src
                    while end < n:
                        next_info = parsed[end]
                        if (
                            next_info is None
                            or items[end][0].datapath is not datapath
                            or next_info[0] != src_port
                            or next_info[1] != dst_port
                            or items[end][1].src != src
                        ):
                            break
                        end += 1
                    if end - index > 1 and datapath.deliver_run(
                        [pair[1] for pair in items[index:end]],
                        src_port,
                        dst_port,
                    ):
                        index = end
                        continue
                    end = index + 1
            if timed:
                datapath.deliver_parsed(packet, src_port, dst_port)
                index += 1
                continue
            # Inlined HostDatapath.deliver_parsed (the method remains the
            # reference implementation and the instrumented entry): one
            # call frame per packet is measurable across a Table II run.
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
            index += 1

    # ------------------------------------------------------ vectorised verify
    @staticmethod
    def _vector_verify(items: list):
        """One batched word-sum pass over the burst's verifiable packets.

        Returns a per-item list where entry *i* is ``(src_port, dst_port)``
        if packet *i* was parsed and its checksum accepted by the batched
        pass, or ``None`` if packet *i* must take the scalar path
        (ineligible, or rejected — the scalar path re-derives the failure
        and counts it exactly as before).  Returns ``None`` outright when
        the burst carries nothing verifiable.

        Two interchangeable implementations of the same fold, picked by
        burst size (see :data:`NUMPY_VERIFY_MIN`); both are pinned
        word-for-word against the datapath's scalar verify by the burst
        checksum property tests.  The stacked numpy pass additionally
        requires uniform datagram sizes; heterogeneous large bursts fall
        back to the flat pass, which verifies each datagram at its own
        length.
        """
        n = len(items)
        if n >= NUMPY_VERIFY_MIN:
            parsed = DeliveryBurst._verify_stacked(items)
            if parsed is not None:
                return parsed
        return DeliveryBurst._verify_flat(items)

    @staticmethod
    def _verify_flat(items: list):
        """The flat arithmetic pass: one big-int fold per datagram.

        The same computation as :meth:`_verify_stacked`, executed by
        CPython's bignum kernel one datagram at a time in a single fused
        eligibility+parse+verify loop; for small-to-medium bursts this
        beats numpy's per-kernel launch overhead by an order of magnitude
        (measured crossover ≈2k packets — see :data:`NUMPY_VERIFY_MIN`).
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

    @staticmethod
    def _verify_stacked(items: list):
        """The numpy stacked-buffer pass for four-digit uniform bursts.

        Word-for-word the scalar fold: pseudo-header address sums + the
        protocol word (17) + the UDP length twice + ports + payload words,
        all mod 0xFFFF.  ``totals`` already contains ports + length field
        + payload (every 16-bit word of the datagram); the checksum field
        is subtracted back out and the length added a second time for the
        pseudo-header.  int64 cannot overflow: 4096 packets × 750 words
        × 0xFFFF ≪ 2**63.

        Returns the per-item parsed list, or ``None`` when the burst's
        verifiable packets are too few or not uniformly sized (the caller
        then uses the flat pass).
        """
        datas: list[bytes] = []
        addr_sums: list[int] = []
        picked: list[int] = []
        size = -1
        for i, (pipeline, packet) in enumerate(items):
            if (
                not pipeline.burst_parse
                or packet.protocol is not _UDP
                or packet.more_fragments
                or packet.fragment_offset
            ):
                continue
            data = packet.payload
            if size < 0:
                size = len(data)
                if size < UDP_HEADER_LEN:
                    return None
            elif len(data) != size:
                return None  # heterogeneous: the flat pass handles it
            datas.append(data)
            addr_sums.append(pipeline.addr_sum)
            picked.append(i)
        count = len(datas)
        if count < 2:
            return None
        parsed: list = [None] * len(items)
        if size & 1:
            buffer = b"".join(data + b"\x00" for data in datas)
            width = (size + 1) // 2
        else:
            buffer = b"".join(datas)
            width = size // 2
        words = np.frombuffer(buffer, dtype=">u2").reshape(count, width)
        totals = words.sum(axis=1, dtype=np.int64)
        length = words[:, 2].astype(np.int64)
        checksum = words[:, 3].astype(np.int64)
        folded = (
            np.asarray(addr_sums, dtype=np.int64) + 17 + length + totals - checksum
        ) % 0xFFFF
        # A zero checksum field means "not checksummed": accepted unverified,
        # exactly as the scalar path's ``if checksum:`` guard does;
        # 0xFFFF - folded is the complement with both RFC special cases
        # already absorbed (see _verify_flat).
        ok = (length == size) & ((checksum == 0) | (checksum == 0xFFFF - folded))
        src_ports = words[:, 0].tolist()
        dst_ports = words[:, 1].tolist()
        ok_list = ok.tolist()
        for j, i in enumerate(picked):
            if ok_list[j]:
                parsed[i] = (src_ports[j], dst_ports[j])
        return parsed
