"""Chaos campaigns end-to-end through the durable run store."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments.runner import ExperimentRunner
from repro.experiments.store import RunStore
from repro.measurement.report import degradation_report
from repro.population import fleet as fleet_module
from repro.population.chaos import (
    CampaignHorizon,
    ChaosPhase,
    ChaosPlan,
    CorrelationGroup,
    campaign_specs,
    compile_chaos,
    load_campaign,
    resume_chaos_campaign,
    run_chaos_campaign,
)
from repro.population.fleet import Fleet
from repro.population.spec import FaultRegimeSpec, PopulationSpec
from repro.testbed import build_testbed


def tiny_spec() -> PopulationSpec:
    return PopulationSpec(
        size=2,
        client_mix={"ntpd": 1.0},
        pool_size=8,
        warmup_seconds=60.0,
        max_duration_hours=0.05,
    )


def tiny_plan() -> ChaosPlan:
    return ChaosPlan(
        groups=(CorrelationGroup("east", 0.5), CorrelationGroup("west", 0.5)),
        regimes=(FaultRegimeSpec("blackout", kind="partition"),),
        phases=(
            ChaosPhase("calm", 100.0),
            ChaosPhase("storm", 100.0, regimes=(("east", "blackout"),)),
        ),
        horizon=CampaignHorizon(duration=250.0),
    )


@pytest.fixture(scope="module")
def campaign_store(tmp_path_factory):
    root = tmp_path_factory.mktemp("campaign")
    store = RunStore(str(root))
    campaign = run_chaos_campaign(
        store,
        "tiny",
        tiny_spec(),
        tiny_plan(),
        seed=3,
        runner=ExperimentRunner(max_workers=1),
    )
    return store, campaign


class TestRunCampaign:
    def test_sweep_completes_with_checkpoint_outcomes(self, campaign_store):
        store, campaign = campaign_store
        sweep_id = campaign["sweep_id"]
        assert store.manifest(sweep_id)["status"] == "complete"
        assert store.manifest(sweep_id)["metadata"]["kind"] == "chaos-campaign"
        done = store.load_outcomes(sweep_id)
        assert sorted(done) == [0, 1, 2]  # checkpoints 100, 200, 250
        assert store.fsck().ok

    def test_summary_record_and_checkpoint_aggregates_stored(
        self, campaign_store
    ):
        store, campaign = campaign_store
        sweep_id = campaign["sweep_id"]
        summaries = store.kind_records(sweep_id, "chaos-campaign-summary")
        assert len(summaries) == 1
        assert summaries[0]["plan_digest"] == tiny_plan().digest()
        aggregates = store.kind_records(sweep_id, "chaos-checkpoint")
        assert len(aggregates) == 3
        assert [a["cell"]["until"] for a in aggregates] == [100.0, 200.0, 250.0]
        # Aggregates are stripped from the stored summary (constant size)
        # but present in the returned document.
        assert all("aggregate" not in c for c in summaries[0]["checkpoints"])
        assert all("aggregate" in c for c in campaign["checkpoints"])

    def test_checkpoints_carry_phases_and_groups(self, campaign_store):
        _store, campaign = campaign_store
        checkpoints = campaign["checkpoints"]
        assert [c["until"] for c in checkpoints] == [100.0, 200.0, 250.0]
        assert [c["phase"] for c in checkpoints] == ["calm", "storm", ""]
        for checkpoint in checkpoints:
            assert set(checkpoint["groups"]) <= {"east", "west"}
        # The storm actually fired on the east group's links.
        storm = checkpoints[1]
        east = storm["groups"].get("east")
        assert east is None or east["fault_stats"]["dropped_partition"] >= 0
        assert storm["fault_stats"]["dropped_partition"] > 0

    def test_load_campaign_round_trips_the_summary(self, campaign_store):
        store, campaign = campaign_store
        loaded = load_campaign(store, campaign["sweep_id"])
        assert loaded is not None
        assert loaded["plan_digest"] == campaign["plan_digest"]
        assert [c["until"] for c in loaded["checkpoints"]] == [
            c["until"] for c in campaign["checkpoints"]
        ]

    def test_degradation_report_renders_timeline(self, campaign_store):
        _store, campaign = campaign_store
        text = degradation_report(campaign)
        assert "chaos campaign tiny" in text
        assert "calm" in text and "storm" in text
        assert "east ok" in text and "west ok" in text
        assert len(text.splitlines()) == 6  # title + header + rule + 3 rows


def dense_plan() -> ChaosPlan:
    # The tiny plan at a 25 s cadence: ten checkpoints, the first two
    # (25 s and 50 s) before the 60 s warmup ends.
    return replace(
        tiny_plan(), horizon=CampaignHorizon(duration=250.0, checkpoint_every=25.0)
    )


@pytest.fixture(scope="module")
def dense_campaign(tmp_path_factory):
    store = RunStore(str(tmp_path_factory.mktemp("dense")))
    campaign = run_chaos_campaign(
        store,
        "tiny-dense",
        tiny_spec(),
        dense_plan(),
        seed=3,
        runner=ExperimentRunner(max_workers=1),
    )
    return store, campaign


class TestCheckpointIndependence:
    def test_extra_checkpoints_do_not_change_shared_ones(
        self, campaign_store, dense_campaign
    ):
        # Reading the fleet at seven more instants, two of them before
        # the warmup ends, must not change what the 100, 200 and 250 s
        # checkpoints see.
        _store, campaign = campaign_store
        _dense_store, dense = dense_campaign
        assert len(dense_plan().checkpoints()) == 10

        def by_until(entries):
            return {
                entry["until"]: {
                    key: value for key, value in entry.items() if key != "checkpoint"
                }
                for entry in entries
            }

        sparse = by_until(campaign["checkpoints"])
        dense_entries = by_until(dense["checkpoints"])
        for until in (100.0, 200.0, 250.0):
            assert dense_entries[until] == sparse[until]

    def test_pre_warmup_checkpoint_reads_the_unattacked_fleet(self, dense_campaign):
        store, campaign = dense_campaign
        stored = store.load_outcomes(campaign["sweep_id"])
        compilation = compile_chaos(dense_plan(), tiny_spec().size, 3)
        for index, until in enumerate((25.0, 50.0)):
            fleet = Fleet(
                tiny_spec(),
                3,
                link_schedules=compilation.schedules,
                group_of=compilation.group_of,
            )
            fleet.advance_to(until)
            assert fleet.attacks == []
            unattacked = fleet.document(detail_limit=0)
            result = stored[index].result
            assert result["until"] == until
            assert result["successes"] == 0
            for key, value in unattacked.items():
                assert result[key] == value, key


class TestOneFleet:
    def test_campaign_and_resume_each_build_one_testbed(self, tmp_path, monkeypatch):
        builds = []

        def counting_build(config):
            builds.append(config.seed)
            return build_testbed(config)

        monkeypatch.setattr(fleet_module, "build_testbed", counting_build)
        store = RunStore(str(tmp_path))
        campaign = run_chaos_campaign(
            store,
            "tiny",
            tiny_spec(),
            tiny_plan(),
            seed=3,
            runner=ExperimentRunner(max_workers=1),
        )
        assert builds == [3]

        # A campaign killed before its pass stored anything, resumed.
        writer = store.begin_sweep(
            "tiny",
            campaign_specs(tiny_spec(), tiny_plan(), seed=3),
            sweep_id="killed",
            seed=3,
        )
        writer.close()
        resumed = resume_chaos_campaign(store, "killed")
        assert builds == [3, 3]
        assert resumed["checkpoints"] == campaign["checkpoints"]


class TestResume:
    def test_resume_from_bare_manifest_matches_uninterrupted(
        self, tmp_path, campaign_store
    ):
        _store, campaign = campaign_store
        # A campaign killed before any checkpoint finished: the manifest
        # froze the specs, no outcome records exist.
        store = RunStore(str(tmp_path / "killed"))
        specs = campaign_specs(tiny_spec(), tiny_plan(), seed=3)
        writer = store.begin_sweep(
            "tiny", specs, sweep_id="killed", seed=3,
            metadata={"kind": "chaos-campaign"},
        )
        writer.close()
        assert store.manifest("killed")["status"] == "running"

        resumed = resume_chaos_campaign(
            store, "killed", runner=ExperimentRunner(max_workers=1)
        )
        assert store.manifest("killed")["status"] == "complete"
        # Bit-identical to the uninterrupted campaign, checkpoint by
        # checkpoint (aggregates included).
        assert [c for c in resumed["checkpoints"]] == [
            c for c in campaign["checkpoints"]
        ]
        assert resumed["plan_digest"] == campaign["plan_digest"]
        assert resumed["spec_digest"] == campaign["spec_digest"]

    def test_resume_of_complete_campaign_is_idempotent(self, campaign_store):
        store, campaign = campaign_store
        kinds = ("chaos-checkpoint", "chaos-campaign-summary")
        counts = [len(store.kind_records(campaign["sweep_id"], k)) for k in kinds]
        resumed = resume_chaos_campaign(
            store, campaign["sweep_id"], runner=ExperimentRunner(max_workers=1)
        )
        assert resumed["checkpoints"] == campaign["checkpoints"]
        assert store.manifest(campaign["sweep_id"])["status"] == "complete"
        assert store.fsck().ok
        # Nothing derived is stored twice.
        assert [
            len(store.kind_records(campaign["sweep_id"], k)) for k in kinds
        ] == counts == [3, 1]
