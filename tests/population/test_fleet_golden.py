"""The degenerate fleet reproduces the single-victim golden run bit-for-bit.

A zero-noise, zero-churn, single-``ntpd`` spec with the Table II defaults
must issue exactly the same simulator/RNG call sequence as the
``table2_runtime_attack`` scenario — same events, same packets, same
achieved shift to the last bit.  This is the contract that makes the
population engine an *extension* of the validated single-victim path
rather than a parallel implementation that can silently drift.
"""

from __future__ import annotations

from repro.experiments.scenarios import get_scenario
from repro.population.fleet import run_fleet
from repro.population.spec import PopulationSpec

#: The pinned golden numbers for (ntpd, P1, seed 5, pool 48, warmup 1500 s)
#: — the same cell every benchmark and the determinism suite pin.
GOLDEN = {
    "success": True,
    "minutes": 15.5,
    "shift": -500.00999995431766,
    "events_processed": 48106,
    "packets_transmitted": 24730,
}

DEGENERATE = PopulationSpec(size=1, client_mix={"ntpd": 1.0})


class TestGoldenBitIdentity:
    def test_degenerate_fleet_matches_golden_constants(self):
        document = run_fleet(DEGENERATE, seed=5)
        assert document["size"] == 1
        assert document["successes"] == 1
        client = document["clients"][0]
        assert client["success"] is GOLDEN["success"]
        assert client["minutes"] == GOLDEN["minutes"]
        assert client["shift"] == GOLDEN["shift"]
        assert document["events_processed"] == GOLDEN["events_processed"]
        assert document["packets_transmitted"] == GOLDEN["packets_transmitted"]

    def test_degenerate_fleet_matches_live_scenario(self):
        # Not just the pinned constants: the fleet must track whatever the
        # single-victim scenario computes today, field for field.
        scenario = get_scenario("table2_runtime_attack")
        single = scenario(client="ntpd", attack="P1", seed=5)
        document = run_fleet(DEGENERATE, seed=5)
        client = document["clients"][0]
        assert client["success"] == single["success"]
        assert client["minutes"] == single["minutes"]
        assert client["shift"] == single["shift"]
        assert document["events_processed"] == single["events_processed"]
        assert document["packets_transmitted"] == single["packets_transmitted"]
