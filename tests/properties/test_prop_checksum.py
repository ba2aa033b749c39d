"""Property-based tests for checksum arithmetic and checksum fixing.

The last block pins the UDP checksum fast paths (arithmetic fold,
precomputed word sums) and the spoofed-query crafting built on them
byte-identical to the generic ``encode_udp`` tower they replaced.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checksum_fix import craft_matching_fragment, sums_match
from repro.netsim.checksum import (
    add_ones_complement,
    internet_checksum,
    ones_complement_sum,
    verify_checksum,
)
from repro.netsim.udp import (
    UDPDatagram,
    _address_word_sum,
    encode_udp,
    payload_word_sum,
    udp_checksum,
    udp_checksum_arith,
    udp_checksum_from_sums,
)

payloads = st.binary(min_size=0, max_size=512)
words = st.integers(min_value=0, max_value=0xFFFF)


class TestChecksumProperties:
    @given(payloads)
    def test_sum_fits_in_16_bits(self, data):
        assert 0 <= ones_complement_sum(data) <= 0xFFFF

    @given(payloads)
    def test_checksum_verifies_when_appended(self, data):
        # Checksums live at even offsets in real headers, so pad odd data.
        if len(data) % 2 == 1:
            data = data + b"\x00"
        checksum = internet_checksum(data)
        assert verify_checksum(data + checksum.to_bytes(2, "big"))

    @given(payloads)
    def test_padding_with_zero_byte_preserves_sum(self, data):
        assert ones_complement_sum(data) == ones_complement_sum(data + b"\x00")

    @given(st.lists(payloads, min_size=2, max_size=4))
    def test_sum_is_associative_over_concatenation(self, chunks):
        # Only holds when every chunk except the last has even length.
        chunks = [c if len(c) % 2 == 0 else c + b"\x00" for c in chunks]
        total = ones_complement_sum(b"".join(chunks))
        folded = 0
        for chunk in chunks:
            folded = add_ones_complement(folded, ones_complement_sum(chunk))
        # Both represent the same value modulo the two encodings of zero.
        assert folded == total or {folded, total} == {0x0000, 0xFFFF}

    @given(words, words)
    def test_add_commutative(self, a, b):
        assert add_ones_complement(a, b) == add_ones_complement(b, a)


class TestChecksumFixProperties:
    @given(
        st.binary(min_size=40, max_size=200),
        st.binary(min_size=1, max_size=16),
        st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=200)
    def test_crafted_fragment_always_matches_original_sum(self, original, patch, where):
        original = original if len(original) % 2 == 0 else original + b"\x00"
        desired = bytearray(original)
        start = min(where, len(original) - len(patch))
        desired[start : start + len(patch)] = patch
        adjustable = [len(original) - 4]  # sacrifice the penultimate word
        crafted = craft_matching_fragment(original, bytes(desired), adjustable)
        assert sums_match(original, crafted)
        assert len(crafted) == len(original)

    @given(st.binary(min_size=20, max_size=100))
    def test_identical_fragments_unchanged(self, original):
        crafted = craft_matching_fragment(original, original, adjustable_offsets=[0])
        assert crafted == original


class TestChecksumFastPathsPinned:
    addresses = st.sampled_from(
        ["10.0.0.1", "192.0.2.53", "203.0.113.17", "66.6.6.1", "255.255.255.254"]
    )
    ports = st.integers(min_value=0, max_value=0xFFFF)
    payloads = st.binary(min_size=0, max_size=256)

    @given(addresses, addresses, ports, ports, payloads)
    @settings(max_examples=200)
    def test_arith_checksum_matches_cached(self, src, dst, sport, dport, payload):
        datagram = UDPDatagram(sport, dport, payload)
        assert udp_checksum_arith(src, dst, sport, dport, payload) == udp_checksum(
            src, dst, datagram
        )

    @given(addresses, addresses, ports, ports, payloads)
    @settings(max_examples=200)
    def test_checksum_from_sums_matches_cached(self, src, dst, sport, dport, payload):
        expected = udp_checksum(src, dst, UDPDatagram(sport, dport, payload))
        observed = udp_checksum_from_sums(
            _address_word_sum(src),
            _address_word_sum(dst),
            sport,
            dport,
            8 + len(payload),
            payload_word_sum(payload),
        )
        assert observed == expected

    @given(st.floats(min_value=0.0, max_value=4_000_000.0, allow_nan=False))
    @settings(max_examples=100)
    def test_spoofed_query_crafting_matches_encode_udp(self, now):
        """The remover's crafted spoofed query is byte-identical to the
        generic UDP encode tower it replaced."""
        from repro.ntp.packet import NTPPacket, NTP_PORT

        victim, server = "192.0.2.101", "203.0.113.7"
        wire = NTPPacket.client_query_wire(now)
        reference = encode_udp(
            victim, server, UDPDatagram(NTP_PORT, NTP_PORT, wire)
        )

        from repro.core import rate_limit_abuse as rla

        remover = object.__new__(rla.AssociationRemover)
        remover.victim_ip = victim
        remover._wire_time = None
        remover._wire = b""
        remover._wire_sum = 0
        remover._query_payload(now)
        campaign = rla.RemovalCampaign(
            server_ip=server, victim_ip=victim, started_at=0.0
        )
        packet = remover._craft_query(campaign)
        assert packet.payload == reference
        assert packet.src == victim and packet.dst == server
