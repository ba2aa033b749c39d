"""Golden corpus: frozen canonical-JSON digests of the multi-client engines.

The Table II golden cell (``test_determinism.py``) pins one victim.  This
corpus pins what sits on top of it — heterogeneous fleets, the chaos smoke
campaign, a Table III cell and the smoke landscape — so a refactor that
changes any of their results fails here, not just a same-seed
self-consistency check.  Each document is the fixture: it is serialised
canonically (sorted keys, no whitespace, ``repr`` floats), with host
timing and store identity fields stripped, and its SHA-256 compared to
the recorded digest.

A digest may only change when a change means to change behaviour; say
why in CHANGES.md and re-record it with ``python
tests/integration/test_golden_corpus.py`` (prints every digest).
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from typing import Any

import pytest

from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenarios import get_scenario
from repro.experiments.store import RunStore
from repro.population.chaos import run_chaos_campaign, smoke_plan
from repro.population.fleet import run_fleet
from repro.population.landscape import smoke_spec, sweep_landscape
from repro.population.spec import ChurnSpec, NoiseLayer, PopulationSpec

#: Fields that depend on the host or the store, not on the simulation.
VOLATILE_KEYS = frozenset({"wall_time", "wall_time_seconds", "sweep_id"})

#: A 16-client fleet exercising every heterogeneity layer at once: four
#: client models, churn in both directions, three link classes, three
#: fault regimes and a noise layer.
HETEROGENEOUS_FLEET = PopulationSpec(
    size=16,
    client_mix={
        "ntpd": 0.4,
        "chrony": 0.3,
        "systemd-timesyncd": 0.2,
        "openntpd": 0.1,
    },
    poll_jitter=0.1,
    churn=ChurnSpec(
        late_join_fraction=0.25,
        join_window=300.0,
        leave_fraction=0.125,
        leave_after=900.0,
        leave_window=300.0,
    ),
    link_mix={"default": 0.5, "broadband": 0.25, "mobile": 0.25},
    fault_mix={"clean": 0.5, "bursty": 0.25, "jittery": 0.25},
    noise_layers=(NoiseLayer("initial_clock_offset", "normal", 0.05),),
    pool_size=16,
    warmup_seconds=300.0,
    max_duration_hours=0.25,
)

GOLDEN = {
    "fleet-0": "24acefe77baca9dba8ad36b7f98ade7e9b0b7e03372928f5c9506ff6110297ba",
    "fleet-1": "c10afbe4c0de3f367c1467e00695a49345cd61cccb560ba23b205c6a32d24da0",
    "fleet-2": "46ba904da4e4ef0b61ea8e1871dea7bfd1114bf1b7cbc2d189b1f4ea593ddf40",
    "chaos-0": "9478a3c6437ac5acf752c046ebe423eee08b6687ea198e03ad5b463ea6042e9d",
    "chaos-1": "ae5f0793b0aabca6093dd96e8bf49b936c8632afb06c0832c6f862797e61d40a",
    "chaos-2": "e3368dcc29b9c533fd2c5edfb4974814beae10a8ec6bd1cab9cbe5f6a8e08daf",
    "table3-0": "a409bcd9ad59a8c95f82c6ff615fea3793fcc6adb0bf5e4739ef7247ae31828a",
    "table3-1": "ff10c33448f19281811617ce05535968c9bc07b6d71f3d24aa7afbab8c3f1278",
    "table3-2": "8c529e645ed74489a461300dfc1f2a2ad4732e525f24f37a691c211a7dc2c279",
    "landscape-0": "393e60121ad26ea3c85b33a6b979e4b3742051b95eed9d8c9fcfc9ac424de1c3",
}


def _strip(value: Any) -> Any:
    if isinstance(value, dict):
        return {
            key: _strip(item)
            for key, item in value.items()
            if key not in VOLATILE_KEYS
        }
    if isinstance(value, (list, tuple)):
        return [_strip(item) for item in value]
    return value


def digest(document: Any) -> str:
    """SHA-256 of the canonical JSON of ``document`` minus volatile keys."""
    text = json.dumps(
        _strip(document), sort_keys=True, separators=(",", ":"), allow_nan=True
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _chaos(seed: int, store_dir: str, runner=None) -> dict:
    return run_chaos_campaign(
        RunStore(store_dir),
        "chaos-smoke",
        smoke_spec(),
        smoke_plan(),
        seed=seed,
        runner=runner,
    )


def _landscape(seed: int, store_dir: str) -> dict:
    # The exact grid ``make population-smoke`` sweeps.
    return sweep_landscape(
        RunStore(store_dir),
        "population-smoke",
        smoke_spec(),
        "share:ntpd",
        (0.2, 0.5, 0.8),
        "pool_rate_limit_fraction",
        (0.0, 0.5, 1.0),
        seed=seed,
    )


def build(key: str, store_dir: str) -> dict:
    """The corpus document recorded under ``key`` (``<kind>-<seed>``)."""
    kind, seed = key.rsplit("-", 1)
    seed = int(seed)
    if kind == "fleet":
        return run_fleet(HETEROGENEOUS_FLEET, seed=seed)
    if kind == "chaos":
        return _chaos(seed, store_dir)
    if kind == "table3":
        return get_scenario("table3_probabilities")(mc_seed=seed)
    return _landscape(seed, store_dir)


class TestDigestCanonicalisation:
    def test_volatile_keys_do_not_affect_the_digest(self):
        base = {"a": 1, "nested": [{"b": 2.5, "wall_time": 0.1}]}
        other = {"nested": [{"wall_time": 9.9, "b": 2.5}], "a": 1, "sweep_id": "x"}
        assert digest(base) == digest(other)

    def test_result_fields_do_affect_the_digest(self):
        assert digest({"shift": -500.0}) != digest({"shift": -500.00000000001})


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_golden_digest(key, tmp_path):
    assert digest(build(key, str(tmp_path))) == GOLDEN[key]


def test_pool_campaign_matches_serial_golden(tmp_path):
    # Checkpoints fanned out over worker processes reproduce the serial
    # campaign bit for bit.
    campaign = _chaos(0, str(tmp_path), runner=ExperimentRunner(max_workers=2))
    assert digest(campaign) == GOLDEN["chaos-0"]


if __name__ == "__main__":
    for name in GOLDEN:
        with tempfile.TemporaryDirectory() as scratch:
            print(f'    "{name}": "{digest(build(name, scratch))}",')
