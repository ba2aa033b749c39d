"""The benchmark's three workloads: inputs from a seed, set-up, one pass.

Each workload is driven closed-loop by one caller (``run.py``): a pass
starts only when the previous one has returned.  A pass returns a
:class:`PassResult` holding the outputs checked against the reference, the
exact counts that must repeat, and the raw figures the per-layer metrics
are computed from.  Why each workload was chosen is in ``NOTES.md``.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

import repro.testbed as testbed_module
from repro.core.run_time import RunTimeAttack
from repro.experiments.runner import ExperimentRunner, RunSpec, timings_summary
from repro.experiments.scenarios import table2_runtime_attack
from repro.experiments.store import SEGMENT_SUFFIX, RunStore, SweepWriter
from repro.netsim.faults import FaultStats
from repro.perf import STAGES
from repro.population import fleet as fleet_module
from repro.population.chaos import (
    CampaignHorizon,
    ChaosPhase,
    ChaosPlan,
    CorrelationGroup,
    compile_chaos,
    run_chaos_campaign,
)
from repro.population.generate import generate_fleet
from repro.population.spec import FaultRegimeSpec, PopulationSpec
from repro.testbed import TestbedConfig

from spans import Tracer, traced_call

#: Worker processes for the chaos campaign's runner (the box has 2 vCPUs).
WORKERS = 2


def digest(document: Any) -> str:
    """SHA-256 of the canonical JSON form of ``document``."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def wait_for_children(timeout: float = 30.0) -> None:
    """Block until every worker process this process started has ended.

    The runner shuts its pool down without waiting, so without this the
    workers of one pass could still be exiting while the next pass runs.
    """
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            raise RuntimeError("worker processes did not exit")
        time.sleep(0.005)


@dataclass
class PassResult:
    """What one pass did and produced."""

    wall: float
    #: Units of useful work the input fixes: cells, clients or checkpoints.
    work: int
    #: Operation key -> output; every key is one attempted operation.
    outputs: dict[str, Any]
    #: Counts that must be identical in every pass of the same input.
    counts: dict[str, float]
    #: Host seconds spent simulating (the denominator of µs per event).
    sim_seconds: float
    #: ``repro.perf`` stage shares of the pass (traced passes only).
    shares: dict[str, float] = field(default_factory=dict)
    #: Other per-pass figures the per-layer metrics use.
    layer: dict[str, float] = field(default_factory=dict)


@contextmanager
def stage_counters(enabled: bool) -> Iterator[None]:
    """Collect the ``repro.perf`` stage counters inside the block."""
    if enabled:
        STAGES.reset()
        STAGES.enable()
    try:
        yield
    finally:
        STAGES.disable()


def stage_shares(enabled: bool, wall: float) -> dict[str, float]:
    """Stage shares of the last :func:`stage_counters` block, if collected."""
    return dict(STAGES.snapshot(wall).get("shares", {})) if enabled else {}


class Table2Grid:
    """Every Table II cell (3 clients × 2 attacks) for 5 seeds, in-process."""

    name = "table2_grid"
    unit = "cells"
    #: Set-up time includes a fresh interpreter importing these.
    imports = ("repro.experiments.scenarios", "repro.testbed", "repro.core.run_time")
    CLIENTS = ("ntpd", "chrony", "openntpd*")
    ATTACKS = ("P1", "P2")

    def __init__(self, seed: int, smoke: bool = False) -> None:
        # Seed 0 covers cell seeds 1-5, which hold the golden ntpd/P1
        # seed-5 cell; seed n covers 5n+1 .. 5n+5.
        seeds = range(5 * seed + 1, 5 * seed + 6)
        self.cells = [
            (client, attack, cell_seed)
            for cell_seed in seeds
            for client in self.CLIENTS
            for attack in self.ATTACKS
        ]
        if smoke:
            self.cells = [("ntpd", "P1", 5 * seed + 5), ("chrony", "P1", 5 * seed + 5)]

    def setup(self, tracer: Optional[Tracer]) -> None:
        # One testbed per cell, as the cells build them (pool_size=48).
        for _client, _attack, cell_seed in self.cells:
            traced_call(
                tracer,
                "testbed.build_testbed",
                testbed_module.build_testbed,
                TestbedConfig(pool_size=48, seed=cell_seed),
            )

    def instrument(self, tracer: Tracer) -> None:
        tracer.wrap(testbed_module, "build_testbed", "testbed.build_testbed")
        tracer.wrap(RunTimeAttack, "run", "core.RunTimeAttack.run")

    def run_pass(self, tracer: Optional[Tracer]) -> PassResult:
        outputs: dict[str, Any] = {}
        events = packets = 0
        traced = tracer is not None
        with stage_counters(traced):
            started = time.perf_counter()
            for client, attack, cell_seed in self.cells:
                key = f"{client}/{attack}/seed{cell_seed}"
                try:
                    result = traced_call(
                        tracer,
                        "experiments.scenarios.table2_runtime_attack",
                        table2_runtime_attack,
                        client=client,
                        attack=attack,
                        seed=cell_seed,
                    )
                except Exception as exc:  # noqa: BLE001 - a failed cell is counted
                    outputs[key] = {"error": f"{type(exc).__name__}: {exc}"}
                    continue
                outputs[key] = [
                    result["success"],
                    result["minutes"],
                    result["shift"],
                    result["events_processed"],
                ]
                events += result["events_processed"]
                packets += result["packets_transmitted"]
            wall = time.perf_counter() - started
        return PassResult(
            wall=wall,
            work=len(self.cells),
            outputs=outputs,
            counts=_counts(None, events=events, packets=packets),
            sim_seconds=wall,
            shares=stage_shares(traced, wall),
        )


class FleetLarge:
    """One 128-client paper-share fleet on one shared simulator."""

    name = "fleet_large"
    unit = "clients"
    imports = ("repro.population.fleet", "repro.population.generate")

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.spec = PopulationSpec(
            size=4 if smoke else 128,
            poll_jitter=0.05,
            pool_size=16,
            warmup_seconds=300.0,
            max_duration_hours=0.1 if smoke else 0.35,
        )

    def setup(self, tracer: Optional[Tracer]) -> None:
        spec = self.spec
        traced_call(tracer, "population.generate_fleet", generate_fleet, spec, self.seed)
        traced_call(
            tracer,
            "testbed.build_testbed",
            testbed_module.build_testbed,
            TestbedConfig(
                seed=self.seed,
                pool_size=spec.pool_size,
                pool_rate_limit_fraction=spec.pool_rate_limit_fraction,
                resolver_validates_dnssec=spec.resolver.validates_dnssec,
                resolver_drops_fragments=spec.resolver.drops_fragments,
            ),
        )

    def instrument(self, tracer: Tracer) -> None:
        # run_fleet resolves both names in its own module's namespace.
        tracer.wrap(fleet_module, "generate_fleet", "population.generate_fleet")
        tracer.wrap(fleet_module, "build_testbed", "testbed.build_testbed")

    def run_pass(self, tracer: Optional[Tracer]) -> PassResult:
        traced = tracer is not None
        with stage_counters(traced):
            started = time.perf_counter()
            try:
                document = traced_call(
                    tracer,
                    "population.run_fleet",
                    fleet_module.run_fleet,
                    self.spec,
                    self.seed,
                )
            except Exception as exc:  # noqa: BLE001 - a failed fleet is counted
                wall = time.perf_counter() - started
                return PassResult(
                    wall=wall,
                    work=self.spec.size,
                    outputs={"fleet": {"error": f"{type(exc).__name__}: {exc}"}},
                    counts={},
                    sim_seconds=wall,
                )
            wall = time.perf_counter() - started
        return PassResult(
            wall=wall,
            work=self.spec.size,
            outputs={"fleet": digest(document)},
            counts=_counts(
                document["fault_stats"],
                events=document["events_processed"],
                packets=document["packets_transmitted"],
            ),
            sim_seconds=wall,
            shares=stage_shares(traced, wall),
        )


class ChaosCampaign:
    """A checkpointed chaos campaign through the runner and the run store.

    32 clients in two correlation groups; calm, storm (one group
    partitioned, the other on bursty loss) and recovery phases of 600 s;
    a 1800 s horizon with a 300 s cadence, so 6 checkpoints.  The store
    lives in a fresh temporary directory under the benchmark's work
    directory, on the host's real filesystem, and every record is fsynced.
    """

    name = "chaos_campaign"
    unit = "checkpoints"
    imports = (
        "repro.population.chaos",
        "repro.population.fleet",
        "repro.experiments.runner",
        "repro.experiments.store",
    )
    CAMPAIGN = "perfbench-chaos"

    def __init__(self, seed: int, work_dir: str, smoke: bool = False) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.spec = PopulationSpec(
            size=4 if smoke else 32,
            poll_jitter=0.05,
            pool_size=16,
            warmup_seconds=300.0,
            max_duration_hours=0.35,
        )
        phase = 150.0 if smoke else 600.0
        self.plan = ChaosPlan(
            groups=(CorrelationGroup("as-east", 0.5), CorrelationGroup("as-west", 0.5)),
            regimes=(
                FaultRegimeSpec("blackout", kind="partition"),
                FaultRegimeSpec("lossy", kind="bursty_loss", probability=0.05),
            ),
            phases=(
                ChaosPhase("calm", phase),
                ChaosPhase(
                    "storm", phase, regimes=(("as-east", "blackout"), ("as-west", "lossy"))
                ),
                ChaosPhase("recovery", phase),
            ),
            horizon=CampaignHorizon(duration=3 * phase, checkpoint_every=300.0),
        )

    def setup(self, tracer: Optional[Tracer]) -> None:
        traced_call(
            tracer,
            "population.chaos.compile_chaos",
            compile_chaos,
            self.plan,
            self.spec.size,
            self.seed,
        )
        # Pool start-up: a fresh runner's worker pool warms its caches and
        # answers two trivial runs.
        runner = ExperimentRunner(max_workers=WORKERS)
        specs = [
            RunSpec.make("table3_probabilities", m_max=2, trials=100, mc_seed=index)
            for index in range(WORKERS)
        ]
        outcomes = traced_call(tracer, "experiments.runner.run", runner.run, specs)
        wait_for_children()
        if not all(outcome.ok for outcome in outcomes):
            raise RuntimeError("worker pool failed to start")

    def instrument(self, tracer: Tracer) -> None:
        tracer.wrap(ExperimentRunner, "run_stored", "experiments.runner.run_stored")
        for method in ("append", "append_aggregate", "append_record"):
            tracer.wrap(SweepWriter, method, f"store.SweepWriter.{method}")

    def run_pass(self, tracer: Optional[Tracer]) -> PassResult:
        with tempfile.TemporaryDirectory(prefix="chaos-store-", dir=self.work_dir) as root:
            store = RunStore(root)
            runner = ExperimentRunner(
                max_workers=WORKERS, collect_stage_stats=tracer is not None
            )
            started = time.perf_counter()
            campaign = traced_call(
                tracer,
                "population.chaos.run_chaos_campaign",
                run_chaos_campaign,
                store,
                self.CAMPAIGN,
                self.spec,
                self.plan,
                seed=self.seed,
                runner=runner,
            )
            wall = time.perf_counter() - started
            wait_for_children()
            return self._inspect(store, campaign, runner, wall)

    def _inspect(
        self, store: RunStore, campaign: dict, runner: ExperimentRunner, wall: float
    ) -> PassResult:
        """Read back what the pass stored; nothing here is timed."""
        sweep_id = campaign["sweep_id"]
        specs = store.specs(sweep_id)
        stored = store.load_outcomes(sweep_id, specs)
        outcomes = [stored.get(index) for index in range(len(specs))]
        header = {
            key: value
            for key, value in campaign.items()
            if key not in ("sweep_id", "checkpoints")
        }
        outputs: dict[str, Any] = {}
        for index, (outcome, entry) in enumerate(zip(outcomes, campaign["checkpoints"])):
            key = f"checkpoint-{index}"
            if outcome is None or not outcome.ok:
                outputs[key] = {"error": outcome.error if outcome else "not stored"}
            else:
                outputs[key] = digest({"campaign": header, "checkpoint": entry})
        finished = [outcome for outcome in outcomes if outcome is not None and outcome.ok]
        events = [outcome.result["events_processed"] for outcome in finished]
        final = finished[-1].result if len(finished) == len(specs) else None
        counts = _counts(
            final["fault_stats"] if final else None,
            events=sum(events),
            packets=sum(outcome.result["packets_transmitted"] for outcome in finished),
        )
        counts["chaos.resim_ratio"] = (
            sum(events) / final["events_processed"] if final else 0.0
        )
        counts["store.records"] = len(store.records(sweep_id))
        segment_bytes = sum(
            entry.stat().st_size
            for entry in os.scandir(store.sweep_dir(sweep_id))
            if entry.name.endswith(SEGMENT_SUFFIX)
        )
        return PassResult(
            wall=wall,
            work=len(finished),
            outputs=outputs,
            counts=counts,
            sim_seconds=sum(outcome.wall_time for outcome in finished),
            shares=dict(
                timings_summary(finished).get("stage_time_shares", {}).get("shares", {})
            ),
            layer={
                "runner.worker_busy_s": sum(outcome.wall_time for outcome in outcomes if outcome),
                "runner.retries": sum(outcome.attempts - 1 for outcome in outcomes if outcome),
                "runner.crashes": runner.last_recovery.get("worker_crashes", 0),
                "store.bytes": segment_bytes,
            },
        )


def _counts(fault_stats: Optional[dict], *, events: int, packets: int) -> dict[str, float]:
    faults = FaultStats.from_document(fault_stats or {})
    return {
        "netsim.events": events,
        "netsim.packets": packets,
        "faults.dropped": faults.dropped,
        "faults.duplicated": faults.duplicated,
        "faults.corrupted": faults.corrupted,
    }


def make_workload(name: str, seed: int, work_dir: str, smoke: bool = False) -> Any:
    if name == "table2_grid":
        return Table2Grid(seed, smoke)
    if name == "fleet_large":
        return FleetLarge(seed, smoke)
    if name == "chaos_campaign":
        return ChaosCampaign(seed, work_dir, smoke)
    raise ValueError(f"unknown workload {name!r}")
