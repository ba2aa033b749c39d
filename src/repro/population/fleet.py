"""Multi-client fleet simulation: one network, one heap, many victims.

A :class:`Fleet` realises a :class:`~repro.population.spec.PopulationSpec`
into a concrete fleet (via :func:`~repro.population.generate.generate_fleet`)
and runs the paper's run-time attack against **every** client concurrently
on a single :class:`~repro.netsim.simulator.Simulator` — thousands of
clients sharing one pool, one resolver and one event heap.  Results fold
into a constant-memory :class:`~repro.population.aggregate.
StreamingAggregate` instead of per-client payload lists (per-client detail
rows are attached only for small fleets).

Bit-identity contract: a zero-noise, zero-churn, single-``ntpd`` spec with
the Table II defaults issues exactly the same simulator/RNG call sequence
as the ``table2_runtime_attack`` scenario, so the fleet path reproduces the
golden single-victim results bit-for-bit (pinned by
``tests/population/test_fleet_golden.py``).

Clients attach through :meth:`repro.testbed.LabTestbed.add_client`, which
allocates victim addresses arithmetically (``VICTIM_BASE_IP + index``), so
fleets of any size get valid dotted quads.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from typing import Any, Mapping, Optional, Sequence

from repro.core.run_time import RunTimeAttack, RunTimeScenario
from repro.netsim.faults import (
    Corruption,
    Duplication,
    FaultStats,
    GilbertElliott,
    LatencySpike,
    Partition,
    ReorderJitter,
)
from repro.netsim.network import Link
from repro.ntp.clients import CLIENT_REGISTRY
from repro.population.aggregate import StreamingAggregate
from repro.population.generate import ClientManifest, generate_fleet
from repro.population.spec import FaultRegimeSpec, PopulationSpec
from repro.testbed import RESOLVER_IP, LabTestbed, TestbedConfig, build_testbed


@lru_cache(maxsize=64)
def spec_from_json(text: str) -> PopulationSpec:
    """Parse (and cache) a canonical spec-JSON string.

    Worker processes receive specs as JSON run-spec parameters; every
    cell of a landscape carries the same base spec, so the parse is
    memoised on the exact string.
    """
    return PopulationSpec.from_json(text)


def _fault_components(regime: FaultRegimeSpec) -> tuple:
    """Map one regime spec onto netsim fault components (inert ones drop).

    The windowed kinds (``partition``, ``latency_spike``) carry their own
    schedule and ignore ``probability``; the probabilistic kinds are inert
    at ``probability == 0``.  Returning ``()`` keeps the link untouched —
    the compiled fault-free fast paths, bit-identical.
    """
    kind = regime.kind
    if kind == "clean":
        return ()
    if kind == "partition":
        components: tuple = (Partition(regime.start, regime.duration),)
    elif kind == "latency_spike":
        components = (
            LatencySpike(
                regime.start, regime.duration, extra=regime.magnitude or 0.25
            ),
        )
    elif regime.probability == 0.0:
        return ()
    elif kind == "bursty_loss":
        components = (
            GilbertElliott(
                p_enter_bad=regime.probability,
                p_exit_bad=0.25,
                loss_bad=regime.magnitude or 0.8,
            ),
        )
    elif kind == "jitter":
        components = (
            ReorderJitter(regime.probability, max_delay=regime.magnitude or 0.2),
        )
    elif kind == "corruption":
        components = (Corruption(regime.probability),)
    else:
        components = (Duplication(regime.probability),)
    return tuple(c for c in components if c.active)


def _attach_client(
    testbed: LabTestbed,
    spec: PopulationSpec,
    manifest: ClientManifest,
    schedule: Optional[Any] = None,
) -> Any:
    """Attach one manifest's client with its link profile, fault regime
    and chaos ``schedule`` (applied on top of the regime)."""
    client_class = CLIENT_REGISTRY[manifest.client_type]
    config = None
    if manifest.poll_multiplier != 1.0:
        default = client_class.default_config()
        config = replace(
            default, poll_interval=default.poll_interval * manifest.poll_multiplier
        )
    client = testbed.add_client(
        client_class, config=config, initial_clock_offset=manifest.initial_clock_offset
    )
    ip = client.host.ip
    network = testbed.network
    upstream = (RESOLVER_IP, *testbed.pool.addresses)

    profile = spec.link_profile_table()[manifest.link_profile]
    if profile.latency != testbed.config.link_latency or profile.loss:
        link = Link(latency=profile.latency, loss_probability=profile.loss)
        for server_ip in upstream:
            network.set_link(ip, server_ip, link)
    components = _fault_components(spec.fault_regime_table()[manifest.fault_regime])
    if components:
        for server_ip in upstream:
            network.set_link_faults(ip, server_ip, *components)
    if schedule is not None:
        for server_ip in upstream:
            network.apply_fault_schedule(ip, server_ip, schedule, extra=components)
    return client


class Fleet:
    """One generated fleet on one simulator: built, advanced, read.

    ``link_schedules`` (``{client index: FaultSchedule}``) adds a chaos
    schedule to a client's upstream links; ``group_of`` (per-client
    correlation-group labels) adds a ``groups`` section to the document.
    """

    def __init__(
        self,
        spec: PopulationSpec,
        seed: int,
        *,
        link_schedules: Optional[Mapping[int, Any]] = None,
        group_of: Optional[Sequence[str]] = None,
    ) -> None:
        self.spec = spec
        self.seed = seed
        self.group_of = group_of
        self.generated = generate_fleet(spec, seed)
        self.scenario = RunTimeScenario(spec.attack)
        self.testbed = testbed = build_testbed(
            TestbedConfig(
                seed=seed,
                pool_size=spec.pool_size,
                pool_rate_limit_fraction=spec.pool_rate_limit_fraction,
                resolver_validates_dnssec=spec.resolver.validates_dnssec,
                resolver_drops_fragments=spec.resolver.drops_fragments,
            )
        )
        self.simulator = simulator = testbed.simulator
        #: When the attack window closes: the warmup, then the attack's
        #: maximum duration plus two progress checks.
        self.natural_end = spec.warmup_seconds + (
            3600.0 * spec.max_duration_hours + 2 * RunTimeAttack.check_interval
        )
        self.attacks: list[RunTimeAttack] = []  # started at the warmup
        self.clients = []
        for manifest in self.generated.clients:
            schedule = link_schedules.get(manifest.index) if link_schedules else None
            client = _attach_client(testbed, spec, manifest, schedule)
            self.clients.append(client)
            if manifest.join_time == 0.0:
                client.start()
            else:
                simulator.schedule(
                    manifest.join_time, client.start, label="population-join"
                )
            if manifest.leave_time is not None:
                simulator.schedule(
                    manifest.leave_time, client.stop, label="population-leave"
                )

    def advance_to(self, time: float) -> None:
        """Run to absolute ``time``, starting every attack at the warmup.

        The first call that reaches ``warmup_seconds`` stops exactly there
        to poison the resolver and start the attacks, then runs on.
        """
        simulator = self.simulator
        warmup = self.spec.warmup_seconds
        if not self.attacks and time >= warmup:
            simulator.run(until=warmup)
            testbed = self.testbed
            self.attacks = [
                RunTimeAttack(
                    testbed.attacker,
                    simulator,
                    testbed.resolver,
                    client,
                    scenario=self.scenario,
                    known_server_list=testbed.pool.addresses,
                    max_duration=3600.0 * self.spec.max_duration_hours,
                )
                for client in self.clients
            ]
            # Poison once per distinct pool-domain set: clients of the same
            # model share their domains, and the resolver cache is shared
            # fleet-wide.
            poisoned: set[frozenset] = set()
            for attack in self.attacks:
                domains = frozenset(attack.victim.config.pool_domains)
                if domains not in poisoned:
                    poisoned.add(domains)
                    attack.poison_resolver_directly()
            for attack in self.attacks:
                attack.start()
        if time > simulator.now:
            simulator.run(until=time)

    def document(self, detail_limit: int = 32) -> dict[str, Any]:
        """Read the fleet, without changing it, into a JSON-safe document.

        A running attack reads as failed (through a snapshot that leaves
        it running); before the warmup every client reads as unattacked.
        Per-client ``clients`` rows appear only up to ``detail_limit``.
        """
        generated = self.generated
        group_of = self.group_of
        aggregate = StreamingAggregate()
        details = []
        include_details = generated.size <= detail_limit
        group_counts: dict[str, list[int]] = {}
        ip_to_group: dict[str, str] = {}
        attacks = self.attacks or [None] * len(self.clients)
        for manifest, client, attack in zip(generated.clients, self.clients, attacks):
            if attack is None:
                success, minutes, shift = False, None, client.clock_error()
            else:
                result = attack._result or attack.snapshot(False, None)
                success = result.success
                minutes = result.attack_duration_minutes
                shift = result.clock_shift_achieved
            aggregate.fold(manifest.client_type, success, shift=shift, minutes=minutes)
            if group_of is not None:
                label = group_of[manifest.index]
                if label:
                    counters = group_counts.setdefault(label, [0, 0])
                    counters[0] += 1
                    counters[1] += int(success)
                    ip_to_group[client.host.ip] = label
            if include_details:
                details.append(
                    {
                        "index": manifest.index,
                        "client_type": manifest.client_type,
                        "success": success,
                        "minutes": minutes,
                        "shift": shift,
                    }
                )

        network = self.testbed.network
        fleet_faults = network.fault_stats()
        aggregate.fold_faults(fleet_faults.to_document())

        document: dict[str, Any] = {
            "scenario": self.scenario.value,
            "seed": self.seed,
            "spec_digest": generated.spec_digest,
            "size": generated.size,
            "successes": aggregate.successes,
            "success_rate": aggregate.success_rate,
            "type_counts": generated.type_counts(),
            "aggregate": aggregate.to_document(),
            "events_processed": self.simulator.events_processed,
            "packets_transmitted": network.packets_transmitted,
            "packets_dropped": network.packets_dropped,
            "fault_stats": fleet_faults.to_document(),
        }
        if group_counts:
            group_faults = {label: FaultStats() for label in group_counts}
            for (src, dst), stats in network.per_pair_fault_stats().items():
                label = ip_to_group.get(src) or ip_to_group.get(dst)
                if label in group_faults:
                    group_faults[label].merge(stats)
            document["groups"] = {
                label: {
                    "clients": group_counts[label][0],
                    "successes": group_counts[label][1],
                    "success_rate": round(
                        group_counts[label][1] / group_counts[label][0], 6
                    ),
                    "fault_stats": group_faults[label].to_document(),
                }
                for label in sorted(group_counts)
            }
        if include_details:
            document["clients"] = details
        return document


def run_fleet(
    spec: PopulationSpec, seed: int, detail_limit: int = 32
) -> dict[str, Any]:
    """Run the run-time attack against every client of a generated fleet."""
    fleet = Fleet(spec, seed)
    fleet.advance_to(fleet.natural_end)
    return fleet.document(detail_limit)


__all__ = ["Fleet", "run_fleet", "spec_from_json"]
