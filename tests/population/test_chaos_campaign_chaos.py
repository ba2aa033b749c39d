"""Crash-injection for chaos campaigns: kill -9 across a segment roll.

The acceptance property for long-horizon campaigns: a campaign driver
killed with ``SIGKILL`` mid-phase — with ``segment_bytes`` tuned so small
that every checkpoint record rolls a fresh segment — leaves a store that
passes ``fsck``, and ``resume_chaos_campaign`` replays the remaining
checkpoints to a summary bit-identical to an uninterrupted campaign.

Runs under ``make chaos`` (and the full tier-1 suite).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.experiments.runner import ExperimentRunner, RunSpec
from repro.experiments.store import RunStore
from repro.population.chaos import (
    PASS_SCENARIO,
    CampaignHorizon,
    ChaosPhase,
    ChaosPlan,
    CorrelationGroup,
    campaign_specs,
    resume_chaos_campaign,
    run_chaos_campaign,
)
from repro.population.spec import FaultRegimeSpec, PopulationSpec

pytestmark = pytest.mark.chaos

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)

#: Small enough that every checkpoint record (a few KB of aggregate and
#: per-group fault stats) rolls onto a fresh segment — the kill is
#: guaranteed to land across a roll boundary.
TINY_SEGMENT_BYTES = 256


def campaign_spec() -> PopulationSpec:
    return PopulationSpec(
        size=6,
        client_mix={"ntpd": 1.0},
        pool_size=16,
        warmup_seconds=300.0,
        max_duration_hours=0.5,
    )


def campaign_plan() -> ChaosPlan:
    return ChaosPlan(
        groups=(CorrelationGroup("east", 0.5), CorrelationGroup("west", 0.5)),
        regimes=(FaultRegimeSpec("blackout", kind="partition"),),
        phases=(
            ChaosPhase("calm", 600.0),
            ChaosPhase("storm", 600.0, regimes=(("east", "blackout"),)),
        ),
        horizon=CampaignHorizon(duration=1500.0, checkpoint_every=300.0),
    )


_CHILD_SOURCE = """
import sys
from repro.experiments.runner import ExperimentRunner
from repro.experiments.store import RunStore
from repro.population.chaos import ChaosPlan, run_chaos_campaign
from repro.population.spec import PopulationSpec

root, spec_json, plan_json, segment_bytes = sys.argv[1:5]
run_chaos_campaign(
    RunStore(root, segment_bytes=int(segment_bytes)),
    "kill",
    PopulationSpec.from_json(spec_json),
    ChaosPlan.from_json(plan_json),
    seed=3,
    runner=ExperimentRunner(max_workers=1),
)
"""


def _discover_sweep(store: RunStore) -> str:
    try:
        sweeps = store.sweeps()
    except Exception:
        return ""
    return sweeps[0] if sweeps else ""


def _count_records(store: RunStore, sweep_id: str) -> int:
    try:
        return len(store.records(sweep_id))
    except Exception:
        return 0


class TestCampaignSigkill:
    def test_kill9_across_segment_roll_resumes_bit_identical(self, tmp_path):
        root = str(tmp_path / "store")
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        child = subprocess.Popen(
            [
                sys.executable,
                "-c",
                _CHILD_SOURCE,
                root,
                campaign_spec().to_json(),
                campaign_plan().to_json(),
                str(TINY_SEGMENT_BYTES),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        store = RunStore(root, segment_bytes=TINY_SEGMENT_BYTES)
        try:
            deadline = time.monotonic() + 60.0
            sweep_id = ""
            # Wait for the child's manifest to commit, then for at least
            # two checkpoint records — each rolls its own segment, so the
            # kill lands with a roll boundary already behind it.
            while True:
                sweep_id = sweep_id or _discover_sweep(store)
                if sweep_id and _count_records(store, sweep_id) >= 2:
                    break
                if child.poll() is not None:
                    pytest.fail("campaign finished before the kill landed")
                if time.monotonic() > deadline:
                    pytest.fail("campaign never produced records to kill over")
                time.sleep(0.005)
            os.kill(child.pid, signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait(timeout=30)

        # Simulate the torn in-flight line the kill can leave behind.
        segments = store._segment_paths(sweep_id)
        assert len(segments) >= 2, "kill did not cross a segment roll"
        with open(segments[-1], "ab") as handle:
            handle.write(b'{"index": 9, "spec": {"scenario": "population_ch')

        report = store.fsck()
        assert report.ok, report.errors
        assert store.manifest(sweep_id)["status"] == "running"
        recorded = _count_records(store, sweep_id)
        assert 2 <= recorded < 5

        resumed = resume_chaos_campaign(
            store, sweep_id, runner=ExperimentRunner(max_workers=1)
        )

        reference = run_chaos_campaign(
            RunStore(str(tmp_path / "reference")),
            "kill",
            campaign_spec(),
            campaign_plan(),
            seed=3,
            runner=ExperimentRunner(max_workers=1),
        )
        # Bit-identical, aggregates included: the prefix the child wrote
        # and the suffix the resume replayed are indistinguishable from an
        # uninterrupted campaign.
        assert resumed["checkpoints"] == reference["checkpoints"]
        assert resumed["plan_digest"] == reference["plan_digest"]
        assert resumed["spec_digest"] == reference["spec_digest"]
        assert store.manifest(sweep_id)["status"] == "complete"
        assert store.fsck().ok
        # The resumed store kept rolling tiny segments the whole way.
        assert len(store._segment_paths(sweep_id)) > len(segments)


class TestOneWriter:
    def test_pass_of_a_foreign_driver_appends_nothing(self, tmp_path):
        store = RunStore(str(tmp_path))
        specs = campaign_specs(campaign_spec(), campaign_plan(), seed=3)
        store.begin_sweep("orphan", specs, sweep_id="orphan", seed=3).close()
        # A finished child's pid is neither this process nor its parent:
        # the pass must act like a worker whose driver was killed.
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait(timeout=30)
        (outcome,) = ExperimentRunner(max_workers=1).run(
            [
                RunSpec.make(
                    PASS_SCENARIO,
                    root=store.root,
                    segment_bytes=store.segment_bytes,
                    sweep_id="orphan",
                    driver_pid=child.pid,
                )
            ]
        )
        assert not outcome.ok
        assert f"campaign driver {child.pid} is gone" in outcome.error
        assert store.records("orphan") == []
