#!/usr/bin/env python
"""Guard against throughput regressions versus the committed bench JSON.

Compares headline throughput metrics of a fresh benchmark run against the
committed ``BENCH_netsim.json`` baseline and exits non-zero when any metric
regressed by more than the threshold (default 20%).  Metrics present in only
one of the two documents are reported but never fail the check, so adding or
renaming bench fields does not break the gate.

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py
        [--baseline PATH] [--threshold 0.2] [--rounds N] [--allow-missing]
        [--history [DIR]] [--history-window N] [--history-min N]

A missing baseline is a typed, actionable error (exit code 2) unless
``--allow-missing`` is passed for fresh checkouts; a baseline whose schema
does not match :data:`EXPECTED_SCHEMA` always is.  Scheduler-noise-prone
microbenchmarks carry individual :data:`NOISE_BANDS` wider than the default
threshold so run-to-run wobble does not read as a regression.

With ``--history`` the gate is **trend-aware**: each metric compares
against the median of a rolling window of prior samples kept in a
:class:`repro.experiments.store.RunStore` under ``.bench_history/``, and
the noise band widens to the window's own observed spread
(``max(static band, 2.5 × pstdev/median)``, capped at 50%) — so one lucky
committed number can neither pin an unreachable bar nor hide a slow
drift.  Metrics with fewer than ``--history-min`` samples fall back to
the single-baseline compare, and a passing gate appends the fresh sample
to the window (``run_benchmarks.py`` does the same after refreshing the
committed JSON).

``run_benchmarks.py`` wires this in automatically: after refreshing the JSON
it diffs the new document against the previously committed one and fails the
benchmark run on regression (``--no-check`` to skip).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from typing import Any, Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.experiments.store import metric_type, register_metric  # noqa: E402

#: Where the trend gate keeps its rolling metric history (a RunStore).
DEFAULT_HISTORY_DIR = os.path.join(REPO_ROOT, ".bench_history")

#: The store sweep id the history samples live under.
HISTORY_SWEEP = "bench"

#: Default rolling-window length and the minimum samples before a metric
#: switches from single-baseline to trend comparison.
DEFAULT_HISTORY_WINDOW = 10
DEFAULT_HISTORY_MIN = 3

#: Trend band = max(static band, _SPREAD_SIGMA × pstdev/median), capped.
_SPREAD_SIGMA = 2.5
_MAX_TREND_BAND = 0.50

#: Headline gated metrics, as key paths into the bench document.  The
#: comparison *direction* is no longer implied by this tuple: each dotted
#: name resolves through the store's metric-type registry
#: (:func:`repro.experiments.store.metric_type`), whose
#: ``higher_is_better`` flag says which way a regression points.
THROUGHPUT_METRICS: tuple[tuple[str, ...], ...] = (
    ("microbenchmarks", "packets_per_sec"),
    ("microbenchmarks", "pipeline_events_per_sec"),
    ("microbenchmarks", "dns_encode_ops_per_sec"),
    ("microbenchmarks", "dns_decode_ops_per_sec"),
    ("microbenchmarks", "dns_decode_cold_ops_per_sec"),
    ("microbenchmarks", "ntp_encode_ops_per_sec"),
    ("microbenchmarks", "ntp_decode_ops_per_sec"),
    ("microbenchmarks", "event_loop", "delivery", "fast_events_per_sec"),
    ("microbenchmarks", "event_loop", "schedule_drain", "fast_events_per_sec"),
    ("microbenchmarks", "event_loop", "timer_chain", "fast_events_per_sec"),
    ("microbenchmarks", "burst_events_per_sec"),
    ("experiments", "table2_ntpd_p1", "result", "events_per_wall_second"),
    ("experiments", "population_fleet", "result", "clients_per_sec"),
)

#: Suffix → unit for the gated metric families (first match wins).
_UNIT_SUFFIXES = (
    ("clients_per_sec", "clients/sec"),
    ("packets_per_sec", "packets/sec"),
    ("events_per_wall_second", "events/sec"),
    ("events_per_sec", "events/sec"),
    ("ops_per_sec", "ops/sec"),
)

for _path in THROUGHPUT_METRICS:
    _name = ".".join(_path)
    register_metric(
        _name,
        unit=next(
            (unit for suffix, unit in _UNIT_SUFFIXES if _name.endswith(suffix)), ""
        ),
        higher_is_better=True,
    )
del _path, _name

#: Default tolerated fractional slowdown per metric.
DEFAULT_THRESHOLD = 0.20

#: Per-metric noise bands (dotted metric name → tolerated fractional
#: slowdown), overriding the global threshold.  The sub-millisecond
#: event-loop and cold-decode microbenches are dominated by OS scheduling
#: jitter and CPU frequency state, so they wobble far more run-to-run than
#: the long pipeline and end-to-end measurements; giving them a wider band
#: keeps the gate sensitive where measurements are stable without turning
#: scheduler noise into false regressions.  ``--threshold`` only moves
#: metrics NOT listed here.
NOISE_BANDS: dict[str, float] = {
    "microbenchmarks.event_loop.delivery.fast_events_per_sec": 0.30,
    "microbenchmarks.event_loop.schedule_drain.fast_events_per_sec": 0.30,
    "microbenchmarks.event_loop.timer_chain.fast_events_per_sec": 0.30,
    "microbenchmarks.dns_decode_cold_ops_per_sec": 0.30,
    # A sub-second fleet cell: wall time wobbles with worker start-up.
    "experiments.population_fleet.result.clients_per_sec": 0.30,
}

#: The bench document schema this checker understands (see
#: ``repro.experiments.runner.write_bench_json``).
EXPECTED_SCHEMA = "repro-bench/1"


class BaselineError(RuntimeError):
    """The committed benchmark baseline cannot be used for comparison."""


class BaselineMissingError(BaselineError):
    """No baseline file exists at the expected path."""


class BaselineSchemaError(BaselineError):
    """The baseline file exists but is not a bench document we understand."""


def load_baseline(path: str) -> dict[str, Any]:
    """Load and validate the committed baseline, raising typed errors.

    * :class:`BaselineMissingError` when the file does not exist, and
    * :class:`BaselineSchemaError` when it is not JSON, not an object,
      declares a schema other than :data:`EXPECTED_SCHEMA`, or carries
      none of the sections the metric paths point into.
    """
    if not os.path.exists(path):
        raise BaselineMissingError(
            f"no benchmark baseline at {path} — run `make bench-refresh` to "
            "create one, or pass --allow-missing to skip the comparison"
        )
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except json.JSONDecodeError as exc:
        raise BaselineSchemaError(
            f"baseline {path} is not valid JSON ({exc}); regenerate it with "
            "`make bench-refresh`"
        ) from exc
    if not isinstance(document, dict):
        raise BaselineSchemaError(
            f"baseline {path} is {type(document).__name__}, expected a JSON "
            "object; regenerate it with `make bench-refresh`"
        )
    found_schema = document.get("schema")
    if found_schema != EXPECTED_SCHEMA:
        raise BaselineSchemaError(
            f"baseline {path} declares schema {found_schema!r}, this checker "
            f"understands {EXPECTED_SCHEMA!r}; regenerate it with "
            "`make bench-refresh`"
        )
    if "microbenchmarks" not in document and "experiments" not in document:
        raise BaselineSchemaError(
            f"baseline {path} has neither a 'microbenchmarks' nor an "
            "'experiments' section — nothing the metric paths can compare; "
            "regenerate it with `make bench-refresh`"
        )
    return document


def extract(document: dict[str, Any], path: tuple[str, ...]) -> Optional[float]:
    """Walk ``path`` into ``document``; None when any key is missing."""
    node: Any = document
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return float(node) if isinstance(node, (int, float)) else None


def goodness_change(name: str, reference: float, new: float) -> float:
    """Signed fractional change where **negative always means worse**.

    Plain ``(new - reference) / reference`` when the metric's registered
    type says higher is better; negated for lower-is-better metrics (a
    latency increase reads as a negative change).  Every comparison site
    then tests ``change < -band`` regardless of direction — the direction
    lives in the store's metric-type registry, not in this file.
    """
    change = (new - reference) / reference
    return change if metric_type(name).higher_is_better else -change


def compare(
    baseline: dict[str, Any],
    fresh: dict[str, Any],
    threshold: float = DEFAULT_THRESHOLD,
) -> tuple[list[str], list[str]]:
    """Diff the two documents; returns ``(regressions, notes)``.

    A regression is a metric whose fresh value is more than its noise band
    *worse* than the baseline — the direction comes from the metric's
    registered type (:func:`goodness_change`), the band from
    :data:`NOISE_BANDS` for the scheduler-sensitive microbenches and
    ``threshold`` for everything else.  Printed percentages are
    goodness-signed: ``+`` is always an improvement.  Notes cover skipped
    metrics and improvements.
    """
    regressions: list[str] = []
    notes: list[str] = []
    for path in THROUGHPUT_METRICS:
        name = ".".join(path)
        band = NOISE_BANDS.get(name, threshold)
        old = extract(baseline, path)
        new = extract(fresh, path)
        if old is None or new is None or old <= 0:
            notes.append(f"skipped {name} (missing in baseline or fresh run)")
            continue
        change = goodness_change(name, old, new)
        if change < -band:
            regressions.append(
                f"{name}: {old:,.0f} -> {new:,.0f} ({change:+.1%}, "
                f"noise band -{band:.0%})"
            )
        else:
            notes.append(f"{name}: {old:,.0f} -> {new:,.0f} ({change:+.1%})")
    return regressions, notes


# ------------------------------------------------------------ trend-aware gate
def collect_history(
    root: str = DEFAULT_HISTORY_DIR, window: int = DEFAULT_HISTORY_WINDOW
) -> list[dict[str, Any]]:
    """The most recent ``window`` metric samples from the history store."""
    from repro.experiments.store import RunStore

    store = RunStore(root)
    if HISTORY_SWEEP not in store.sweeps():
        return []
    samples = [
        record
        for record in store.records(HISTORY_SWEEP)
        if isinstance(record.get("metrics"), dict)
    ]
    return samples[-window:] if window > 0 else samples


def append_history(
    fresh: dict[str, Any], root: str = DEFAULT_HISTORY_DIR
) -> dict[str, float]:
    """Durably record one bench document's headline metrics in the store."""
    from repro.experiments.store import RunStore, git_revision

    metrics: dict[str, float] = {}
    for path in THROUGHPUT_METRICS:
        value = extract(fresh, path)
        if value is not None:
            metrics[".".join(path)] = value
    store = RunStore(root)
    if HISTORY_SWEEP in store.sweeps():
        writer = store.open_sweep(HISTORY_SWEEP)
    else:
        writer = store.begin_sweep("bench", sweep_id=HISTORY_SWEEP)
    try:
        writer.append_record(
            {
                "kind": "bench-sample",
                "metrics": metrics,
                "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
                "git_revision": git_revision(),
            }
        )
    finally:
        writer.close()
    return metrics


def _metric_samples(history: list[dict[str, Any]], name: str) -> list[float]:
    values: list[float] = []
    for sample in history:
        value = sample["metrics"].get(name)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            values.append(float(value))
    return values


def trend_compare(
    baseline: dict[str, Any],
    fresh: dict[str, Any],
    history: list[dict[str, Any]],
    threshold: float = DEFAULT_THRESHOLD,
    min_samples: int = DEFAULT_HISTORY_MIN,
) -> tuple[list[str], list[str]]:
    """Diff ``fresh`` against the rolling history; ``(regressions, notes)``.

    Each metric compares against the **median** of its history window,
    with a noise band widened to the window's own observed run-to-run
    spread — a metric that wobbles 15% between identical runs gets at
    least a 37.5% band (2.5σ), while a rock-steady one keeps its static
    band.  Metrics with fewer than ``min_samples`` recorded samples fall
    back to the single-baseline rule of :func:`compare`.
    """
    regressions: list[str] = []
    notes: list[str] = []
    for path in THROUGHPUT_METRICS:
        name = ".".join(path)
        static_band = NOISE_BANDS.get(name, threshold)
        new = extract(fresh, path)
        if new is None:
            notes.append(f"skipped {name} (missing in fresh run)")
            continue
        values = _metric_samples(history, name)
        if len(values) < min_samples:
            old = extract(baseline, path)
            if old is None or old <= 0:
                notes.append(
                    f"skipped {name} (missing in baseline, "
                    f"{len(values)} history sample(s))"
                )
                continue
            change = goodness_change(name, old, new)
            if change < -static_band:
                regressions.append(
                    f"{name}: {old:,.0f} -> {new:,.0f} ({change:+.1%}, "
                    f"noise band -{static_band:.0%}, single baseline — only "
                    f"{len(values)} history sample(s))"
                )
            else:
                notes.append(
                    f"{name}: {old:,.0f} -> {new:,.0f} ({change:+.1%}, "
                    "single baseline)"
                )
            continue
        median = statistics.median(values)
        if median <= 0:
            notes.append(f"skipped {name} (non-positive trend median)")
            continue
        spread = statistics.pstdev(values) / median
        band = min(_MAX_TREND_BAND, max(static_band, _SPREAD_SIGMA * spread))
        change = goodness_change(name, median, new)
        line = (
            f"{name}: median[{len(values)}] {median:,.0f} -> {new:,.0f} "
            f"({change:+.1%}, trend band -{band:.0%})"
        )
        if change < -band:
            regressions.append(line)
        else:
            notes.append(line)
    return regressions, notes


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline",
        default=os.path.join(REPO_ROOT, "BENCH_netsim.json"),
        help="committed benchmark JSON to compare against",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="tolerated fractional slowdown per metric (default 0.2)",
    )
    parser.add_argument(
        "--rounds", type=int, default=3, help="best-of rounds for the fresh run"
    )
    parser.add_argument(
        "--allow-missing",
        action="store_true",
        help="exit 0 when no baseline exists (fresh checkouts / first run)",
    )
    parser.add_argument(
        "--history",
        nargs="?",
        const=DEFAULT_HISTORY_DIR,
        default=None,
        metavar="DIR",
        help=(
            "trend-aware mode: compare against the rolling sample window in "
            "this run store (default .bench_history/) and record the fresh "
            "sample when the gate passes"
        ),
    )
    parser.add_argument(
        "--history-window",
        type=int,
        default=DEFAULT_HISTORY_WINDOW,
        help=f"rolling window length (default {DEFAULT_HISTORY_WINDOW})",
    )
    parser.add_argument(
        "--history-min",
        type=int,
        default=DEFAULT_HISTORY_MIN,
        help=(
            "samples required before a metric trusts its trend instead of "
            f"the single baseline (default {DEFAULT_HISTORY_MIN})"
        ),
    )
    args = parser.parse_args(argv)
    try:
        baseline = load_baseline(args.baseline)
    except BaselineMissingError as exc:
        if args.allow_missing:
            print(f"{exc}; nothing to compare")
            return 0
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BaselineSchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    from bench_micro_netsim import run_micro_benchmarks
    from run_benchmarks import (
        refine_timing,
        run_end_to_end,
        run_population_fleet,
    )

    print(f"running fresh benchmarks (best of {args.rounds})...", flush=True)
    # End-to-end first, microbenchmarks second — same order as
    # run_benchmarks.py, so fresh and committed numbers are measured under
    # the same in-process conditions.  The end-to-end timings are
    # re-sampled after the micro suite (refine_timing) so one
    # host-scheduling stall cannot read as a false regression.
    end_to_end = run_end_to_end(max_workers=1)
    population = run_population_fleet(1)
    micro = run_micro_benchmarks(rounds=args.rounds)
    refine_timing(end_to_end, "table2_runtime_attack", 1)
    fresh = {
        "experiments": {
            "table2_ntpd_p1": end_to_end,
            "population_fleet": population,
        },
        "microbenchmarks": micro,
    }
    if args.history is not None:
        history = collect_history(args.history, args.history_window)
        print(
            f"trend gate: {len(history)} history sample(s) in {args.history} "
            f"(window {args.history_window}, min {args.history_min})"
        )
        regressions, notes = trend_compare(
            baseline,
            fresh,
            history,
            threshold=args.threshold,
            min_samples=args.history_min,
        )
    else:
        regressions, notes = compare(baseline, fresh, threshold=args.threshold)
    for note in notes:
        print(f"  ok: {note}")
    for regression in regressions:
        print(f"  REGRESSION: {regression}")
    if regressions:
        print(f"{len(regressions)} metric(s) regressed beyond {args.threshold:.0%}")
        return 1
    if args.history is not None:
        append_history(fresh, args.history)
        print(f"recorded fresh sample into {args.history}")
    print("no throughput regressions")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
