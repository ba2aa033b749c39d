#!/usr/bin/env python
"""Benchmark entry point: microbenchmarks + one end-to-end scenario → JSON.

Runs the netsim microbenchmark suite (event-loop seed-vs-fast comparison,
packets/sec, DNS codec ops/sec) plus one end-to-end Table II scenario through
the experiment engine, then writes/updates ``BENCH_netsim.json`` at the
repository root so future PRs have a performance trajectory to compare
against.

Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py [--output PATH]
        [--rounds N] [--workers N] [--quick]

``--quick`` trims the round count for smoke runs (CI that only needs the
file refreshed, not tight numbers).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.experiments import ExperimentRunner, RunSpec, write_bench_json  # noqa: E402
from repro.experiments.runner import timings_summary  # noqa: E402

from bench_micro_netsim import run_micro_benchmarks  # noqa: E402
from check_regression import compare  # noqa: E402


def _best_timing_outcome(scenario: str, max_workers: int | None, rounds: int):
    """Run ``rounds`` uninstrumented timing runs of one fixed-seed cell.

    Returns ``(best_ok_outcome_or_fallback, rounds_run)`` — the shared
    best-of machinery behind the end-to-end summaries and the late
    re-sampling pass.
    """
    spec = RunSpec.make(scenario, client="ntpd", attack="P1", seed=5)
    runner = ExperimentRunner(max_workers=max_workers)
    outcomes = [runner.run([spec])[0] for _ in range(max(1, rounds))]
    best = min(
        (outcome for outcome in outcomes if outcome.ok),
        key=lambda o: o.wall_time,
        default=outcomes[0],
    )
    return best, len(outcomes)


def run_end_to_end(max_workers: int | None, timing_rounds: int = 5) -> dict:
    """One fixed-seed Table II cell (ntpd / P1) through the engine.

    Two phases, reported in one summary:

    * **timing** — ``timing_rounds`` uninstrumented runs; the headline
      ``events_per_wall_second`` is the best observed rate (noise-robust
      maximum, like the microbenchmarks), free of observer overhead.
    * **attribution** — one run with per-stage counters enabled, so the
      persisted summary carries ``stage_time_shares`` with the named
      delivery-pipeline stages (defrag / checksum / demux / handler) future
      PRs use to find the next bottleneck.

    Both phases run the identical fixed-seed scenario; stage collection
    never changes results, only adds wall time — which is exactly why the
    headline rate is taken from the uninstrumented runs.
    """
    best, rounds_run = _best_timing_outcome(
        "table2_runtime_attack", max_workers, timing_rounds
    )

    spec = RunSpec.make("table2_runtime_attack", client="ntpd", attack="P1", seed=5)
    stage_runner = ExperimentRunner(max_workers=max_workers, collect_stage_stats=True)
    staged = stage_runner.run([spec])
    summary = timings_summary(staged)
    summary["execution_mode"] = stage_runner.last_execution_mode
    summary["timing_rounds"] = rounds_run
    outcome = staged[0]
    if outcome.ok and best.ok:
        # ``total_wall_time_seconds`` (from timings_summary) is the
        # *instrumented* attribution run's wall clock; the headline rate
        # and ``best_timing_wall_seconds`` come from the uninstrumented
        # timing rounds, so the two wall times intentionally differ.
        summary["best_timing_wall_seconds"] = round(best.wall_time, 6)
        summary["result"] = {
            "success": best.result["success"],
            "minutes": best.result["minutes"],
            "shift": best.result["shift"],
            "events_processed": best.result["events_processed"],
            "events_per_wall_second": round(
                best.result["events_processed"] / best.wall_time
            ),
        }
    else:
        summary["error"] = outcome.error or best.error
    return summary


def run_population_fleet(
    max_workers: int | None = None, timing_rounds: int = 3
) -> dict:
    """Population-engine throughput cell: one fixed heterogeneous mini-fleet.

    Best-of ``timing_rounds`` runs of a 64-client fleet (paper-share client
    mix, mild poll jitter) through the ``population_fleet`` scenario.  The
    headline ``clients_per_sec`` — fleet size over the best wall time — is
    the regression-gate metric for the multi-victim population path, which
    exercises scheduling, delivery and attack machinery in a shape none of
    the single-victim cells do.
    """
    from repro.population.spec import PopulationSpec

    population = PopulationSpec(
        size=64,
        poll_jitter=0.05,
        pool_size=16,
        warmup_seconds=300.0,
        # Long enough for the fast client models to actually land their
        # shifts (~16 simulated minutes for ntpd), so the cell measures
        # attack traffic, not just idle polling.
        max_duration_hours=0.35,
    )
    spec = RunSpec.make("population_fleet", spec_json=population.to_json(), seed=7)
    runner = ExperimentRunner(max_workers=max_workers)
    outcomes = [runner.run([spec])[0] for _ in range(max(1, timing_rounds))]
    best = min(
        (outcome for outcome in outcomes if outcome.ok),
        key=lambda o: o.wall_time,
        default=outcomes[0],
    )
    if not best.ok:
        return {"error": best.error}
    result = best.result
    return {
        "timing_rounds": len(outcomes),
        "best_timing_wall_seconds": round(best.wall_time, 6),
        "result": {
            "size": result["size"],
            "successes": result["successes"],
            "success_rate": result["success_rate"],
            "events_processed": result["events_processed"],
            "clients_per_sec": round(result["size"] / best.wall_time, 3),
            "events_per_wall_second": round(
                result["events_processed"] / best.wall_time
            ),
        },
    }


def refine_timing(
    summary: dict, scenario: str, max_workers: int | None, rounds: int = 3
) -> None:
    """Re-sample a scenario's wall time late in the session, keep the best.

    The end-to-end cells take well under a second per round, so a single
    host-scheduling stall (routine on 1-vCPU CI boxes) can cover every
    round of one timing batch and pin the committed rate far below the
    machine's real capability.  Spreading extra rounds across the session
    — this runs *after* the minutes-long microbenchmark suite — makes the
    committed number a best-of over temporally separated windows.
    """
    result = summary.get("result")
    if not result:
        return
    best, rounds_run = _best_timing_outcome(scenario, max_workers, rounds)
    if best.ok:
        rate = round(best.result["events_processed"] / best.wall_time)
        if rate > result["events_per_wall_second"]:
            result["events_per_wall_second"] = rate
            summary["best_timing_wall_seconds"] = round(best.wall_time, 6)
    summary["timing_rounds"] = summary.get("timing_rounds", 0) + rounds_run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        default=os.path.join(REPO_ROOT, "BENCH_netsim.json"),
        help="where to write the benchmark JSON (default: repo root)",
    )
    parser.add_argument(
        "--rounds", type=int, default=5, help="best-of rounds per microbenchmark"
    )
    parser.add_argument(
        "--workers", type=int, default=None, help="experiment engine worker count"
    )
    parser.add_argument(
        "--quick", action="store_true", help="single round per microbenchmark"
    )
    parser.add_argument(
        "--no-check",
        action="store_true",
        help="skip the regression diff against the previously committed JSON",
    )
    parser.add_argument(
        "--check-threshold",
        type=float,
        default=0.2,
        help="tolerated fractional slowdown per metric (default 0.2)",
    )
    args = parser.parse_args(argv)
    if args.workers is not None and args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    rounds = 1 if args.quick else args.rounds

    baseline = None
    if not args.no_check and os.path.exists(args.output):
        try:
            with open(args.output, "r", encoding="utf-8") as handle:
                baseline = json.load(handle)
        except (OSError, json.JSONDecodeError):
            baseline = None

    # End-to-end first: its headline events/wall-sec is the acceptance
    # metric, and measuring it before the microbenchmark load keeps the
    # process (allocator, caches, CPU thermal state) comparable across
    # refreshes.
    print("running end-to-end scenario (Table II, ntpd/P1, seed 5)...", flush=True)
    end_to_end = run_end_to_end(args.workers)
    print(json.dumps(end_to_end, indent=2))

    print("running population fleet cell (64 clients, seed 7)...", flush=True)
    population = run_population_fleet(args.workers)
    print(json.dumps(population, indent=2))

    print(f"running microbenchmarks (best of {rounds})...", flush=True)
    micro = run_micro_benchmarks(rounds=rounds)
    print(json.dumps(micro, indent=2))

    # Late re-sampling: a second, temporally separated batch of end-to-end
    # timing rounds, so one host-scheduling stall cannot pin the committed
    # rates low (see refine_timing).
    print("re-sampling end-to-end timings...", flush=True)
    refine_timing(end_to_end, "table2_runtime_attack", args.workers)
    print(json.dumps({"table2_ntpd_p1": end_to_end.get("result")}, indent=2))

    # Gate BEFORE overwriting: a failing run must leave the committed
    # baseline intact, otherwise an immediate rerun would compare the fresh
    # numbers against the regressed ones and silently pass.
    if baseline is not None:
        fresh = {
            "microbenchmarks": micro,
            "experiments": {
                "table2_ntpd_p1": end_to_end,
                "population_fleet": population,
            },
        }
        regressions, _notes = compare(baseline, fresh, threshold=args.check_threshold)
        for regression in regressions:
            print(f"REGRESSION: {regression}")
        if regressions:
            print(
                f"{len(regressions)} metric(s) regressed beyond "
                f"{args.check_threshold:.0%} of the committed baseline; "
                f"{args.output} left unchanged"
            )
            return 1
        print("regression check: ok (vs previously committed JSON)")

    document = write_bench_json(
        args.output,
        microbenchmarks=micro,
        experiments={
            "table2_ntpd_p1": end_to_end,
            "population_fleet": population,
        },
    )
    print(f"wrote {args.output}")
    try:
        # Feed the trend gate's rolling window (best-effort: a read-only
        # checkout must not fail the benchmark run over bookkeeping).
        from check_regression import DEFAULT_HISTORY_DIR, append_history

        append_history(document, DEFAULT_HISTORY_DIR)
        print(f"recorded sample into {DEFAULT_HISTORY_DIR}")
    except Exception as exc:  # noqa: BLE001 - history is advisory
        print(f"note: could not record bench history ({exc})")
    speedup = document["microbenchmarks"]["event_loop"]["delivery"]["speedup"]
    print(f"event-loop delivery speedup vs seed: {speedup}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
