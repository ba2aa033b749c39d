"""A ready-made lab testbed mirroring the paper's evaluation setup.

Most experiments need the same cast of characters: a simulator, a network, a
synthetic ``pool.ntp.org`` population, the pool's authoritative nameserver, a
victim recursive resolver, an off-path attacker and one or more victim NTP
clients.  :class:`LabTestbed` wires those together with sensible defaults so
examples, tests and benchmarks stay short and consistent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Type

from repro.core.attacker import Attacker, AttackerResources
from repro.dns.nameserver import PoolNameserver
from repro.dns.resolver import RecursiveResolver, ResolverConfig
from repro.netsim.addresses import int_to_ip, ip_to_int
from repro.netsim.host import Host, OSProfile
from repro.netsim.ipid import GlobalCounterIPID
from repro.netsim.network import Network
from repro.netsim.simulator import Simulator
from repro.ntp.chronos.client import ChronosClient, ChronosConfig
from repro.ntp.clients.base import BaseNTPClient, NTPClientConfig
from repro.ntp.pool import PoolPopulation, build_pool_population

#: Addresses used by the standard testbed.
NAMESERVER_IP = "198.51.100.10"
RESOLVER_IP = "192.0.2.53"
VICTIM_BASE_IP = "192.0.2.100"
POOL_BASE_IP = "203.0.113.1"


@dataclass
class TestbedConfig:
    """Parameters of the standard lab testbed."""

    # Not a test class, despite the name (silences pytest collection).
    __test__ = False

    seed: int = 42
    pool_size: int = 64
    pool_rate_limit_fraction: float = 1.0
    #: "random" reproduces the real pool's rotation; "fixed" gives the
    #: predictable response tail the fragmentation attack needs to succeed
    #: deterministically (see the rotation ablation benchmark).
    pool_rotation: str = "random"
    resolver_validates_dnssec: bool = False
    resolver_drops_fragments: bool = False
    attacker_time_shift: float = -500.0
    attacker_address_pool_size: int = 100
    attacker_ntp_servers: int = 4
    link_latency: float = 0.01


@dataclass
class LabTestbed:
    """The assembled testbed (build with :func:`build_testbed`)."""

    config: TestbedConfig
    simulator: Simulator
    network: Network
    pool: PoolPopulation
    pool_nameserver: PoolNameserver
    resolver: RecursiveResolver
    attacker: Attacker
    clients: list[BaseNTPClient] = field(default_factory=list)
    _next_victim_index: int = 0

    # ------------------------------------------------------------- clients
    def add_client(
        self,
        client_class: Type[BaseNTPClient],
        config: Optional[NTPClientConfig] = None,
        initial_clock_offset: float = 0.0,
        start: bool = False,
    ) -> BaseNTPClient:
        """Attach a victim NTP client of the given implementation model."""
        host = self._add_victim_host("victim")
        client = client_class(
            host,
            self.simulator,
            self.resolver.ip,
            config=config,
            initial_clock_offset=initial_clock_offset,
        )
        self.clients.append(client)
        if start:
            client.start()
        return client

    def add_chronos_client(
        self,
        config: Optional[ChronosConfig] = None,
        initial_clock_offset: float = 0.0,
    ) -> ChronosClient:
        """Attach a Chronos-enhanced client."""
        host = self._add_victim_host("chronos")
        return ChronosClient(
            host,
            self.simulator,
            self.resolver.ip,
            config=config,
            initial_clock_offset=initial_clock_offset,
        )

    def _add_victim_host(self, kind: str) -> Host:
        """The next victim host: ``<kind>-<n>`` at ``VICTIM_BASE_IP + n``.

        Addresses are allocated arithmetically, so testbeds with more than
        155 victims still get valid dotted quads.
        """
        self._next_victim_index += 1
        index = self._next_victim_index
        return self.network.add_host(
            f"{kind}-{index}", int_to_ip(ip_to_int(VICTIM_BASE_IP) + index)
        )

    # ----------------------------------------------------------- shortcuts
    def run_for(self, seconds: float) -> None:
        """Advance the simulation."""
        self.simulator.run_for(seconds)

    def resolver_poisoned(self, qname: str = "pool.ntp.org") -> bool:
        """Ground truth: does the resolver cache map ``qname`` to the attacker?"""
        return self.resolver.is_poisoned(qname, self.attacker.controlled_addresses)


def build_testbed(config: Optional[TestbedConfig] = None) -> LabTestbed:
    """Assemble the standard lab testbed."""
    config = config or TestbedConfig()
    simulator = Simulator(seed=config.seed)
    network = Network(simulator, default_latency=config.link_latency)

    pool = build_pool_population(
        simulator,
        network,
        size=config.pool_size,
        rate_limit_fraction=config.pool_rate_limit_fraction,
        base_address=POOL_BASE_IP,
    )
    nameserver_host = network.add_host(
        "pool-nameserver", NAMESERVER_IP, ipid_allocator=GlobalCounterIPID()
    )
    pool_nameserver = PoolNameserver(
        nameserver_host,
        pool.addresses,
        rotation=config.pool_rotation,
        rng=simulator.spawn_rng(),
    )

    resolver_profile = (
        OSProfile.fragment_filtering() if config.resolver_drops_fragments else OSProfile.linux()
    )
    resolver_host = network.add_host("resolver", RESOLVER_IP, profile=resolver_profile)
    resolver = RecursiveResolver(
        resolver_host,
        simulator,
        zone_map={"pool.ntp.org": NAMESERVER_IP},
        config=ResolverConfig(validate_dnssec=config.resolver_validates_dnssec),
    )

    attacker = Attacker(
        simulator,
        network,
        AttackerResources(
            time_shift=config.attacker_time_shift,
            address_pool_size=config.attacker_address_pool_size,
            malicious_ntp_servers=config.attacker_ntp_servers,
        ),
    )
    return LabTestbed(
        config=config,
        simulator=simulator,
        network=network,
        pool=pool,
        pool_nameserver=pool_nameserver,
        resolver=resolver,
        attacker=attacker,
    )
