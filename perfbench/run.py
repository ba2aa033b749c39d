#!/usr/bin/env python3
"""The repository benchmark: Table II grid, large fleet, chaos campaign.

Run from the repository root::

    python3 perfbench/run.py --workload table2_grid --seed 0 --seconds 30 --trace 0

``--workload`` is one of ``table2_grid``, ``fleet_large`` and
``chaos_campaign``, or ``all`` to run the three one after another, each in
its own process.  The benchmark sets up several times and reports the
median set-up time, then runs passes of the workload closed-loop for
``--seconds`` seconds, checking every pass's outputs.  The reference is
``expected.json`` for the default seed 0; for any other seed every pass
must reproduce the first, and every run in the same checkout must
reproduce the first run of that seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` untraced and traced passes alternate, and the metrics are
the per-layer ones, including the tracing overhead.  Spans and the full
result (with the host calibration) are written under ``.perfbench/``.

``--smoke`` runs tiny inputs; ``--record-expected`` rewrites
``expected.json`` from the current program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench")
EXPECTED_PATH = os.path.join(HERE, "expected.json")
CALIBRATION_MODULE = os.path.join(ROOT, "benchmarks", "bench_micro_netsim.py")

WORKLOADS = ("table2_grid", "fleet_large", "chaos_campaign")
DEFAULT_SEED = 0
#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: At least this many passes per run, so every run checks repetition.
MIN_PASSES = 2
#: Samples a tail percentile must have beyond it to be reported.
TAIL_SAMPLES = 10


def _benchmark() -> dict[str, Any]:
    """The benchmark's definition, ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, in the order ``BENCHMARK.json`` lists them."""
    return {metric["name"]: metric["unit"] for metric in _benchmark()[kind]}


#: Counts that must repeat exactly in every pass and every run of an input.
EXACT_COUNTS = (
    "netsim.events",
    "netsim.packets",
    "faults.dropped",
    "faults.duplicated",
    "faults.corrupted",
    "chaos.resim_ratio",
    "store.records",
)


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing program, bad arguments)."""


def _check_checkout() -> None:
    for path in (os.path.join(SRC, "repro", "__init__.py"), CALIBRATION_MODULE):
        if not os.path.isfile(path):
            raise BenchmarkError(f"missing {os.path.relpath(path, ROOT)}: not a checkout")
    for path in (SRC, os.path.dirname(CALIBRATION_MODULE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _calibrate() -> float:
    """Seed event-loop rate from the micro benchmark (events per second)."""
    from bench_micro_netsim import _seed_delivery_events_per_sec

    return _seed_delivery_events_per_sec()


def _import_in_fresh_interpreter(modules: tuple[str, ...]) -> None:
    """Start a new interpreter that imports ``modules`` and exits."""
    subprocess.run(
        [sys.executable, "-c", "import " + ", ".join(modules)],
        check=True,
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=120,
    )


def _source_digest() -> str:
    """Digest of the program's and the benchmark's sources (keys the
    cross-run cache, so a changed program starts a fresh record)."""
    digest = hashlib.sha256()
    for top in (os.path.join(SRC, "repro"), HERE):
        for folder, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:16]


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest of 50/75/90/95/99 with at least
    :data:`TAIL_SAMPLES` samples beyond it; (0, 0) when none has."""
    ordered = sorted(samples)
    for pct in (99, 95, 90, 75, 50):
        if len(ordered) * (100 - pct) / 100 >= TAIL_SAMPLES:
            rank = min(len(ordered) - 1, math.ceil(pct / 100 * len(ordered)) - 1)
            return float(pct), ordered[rank]
    return 0.0, 0.0


def load_expected(mode: str, workload: str) -> Optional[dict[str, Any]]:
    if not os.path.isfile(EXPECTED_PATH):
        return None
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle).get(mode, {}).get(workload)


# ------------------------------------------------------------------- checks
class Checker:
    """Counts attempted and failed operations, and determinism drift.

    Every pass is compared with ``reference`` (``expected.json`` for the
    default seed) or, without one, with the run's first pass: its outputs
    and its exact counts must repeat.  :meth:`check_session` compares the
    first pass with the first run of the same input in this checkout.
    """

    def __init__(self, reference: Optional[dict[str, Any]]) -> None:
        self.reference = reference
        self.first: Optional[dict[str, Any]] = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, index: int, result: Any) -> None:
        # Through JSON, so outputs compare exactly as they are recorded.
        observed = json.loads(
            json.dumps(
                {
                    "outputs": result.outputs,
                    "counts": {
                        name: result.counts[name]
                        for name in EXACT_COUNTS
                        if name in result.counts
                    },
                }
            )
        )
        if self.first is None:
            self.first = observed
        reference = self.reference or self.first
        outputs = observed["outputs"]
        self.attempted += len(outputs)
        wrong = sorted(
            key for key, value in outputs.items() if reference["outputs"].get(key) != value
        )
        missing = sorted(set(reference["outputs"]) - set(outputs))
        if wrong or missing:
            self.problems.append(f"pass {index}: outputs differ for {wrong + missing}")
        drift = {
            name: (reference["counts"].get(name), observed["counts"].get(name))
            for name in EXACT_COUNTS
            if reference["counts"].get(name) != observed["counts"].get(name)
        }
        if drift:
            self.problems.append(f"pass {index}: determinism failure, counts drift {drift}")
            self.failed += len(outputs)
        else:
            self.failed += len(wrong)

    def check_session(self, path: str) -> None:
        """Compare with the first run of this input in this checkout."""
        if self.first is None:
            return
        if not os.path.isfile(path):
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(self.first, handle, sort_keys=True)
            return
        with open(path, encoding="utf-8") as handle:
            earlier = json.load(handle)
        if earlier != self.first:
            self.problems.append(f"determinism failure: differs from the run recorded in {path}")
            self.failed = self.attempted


# ------------------------------------------------------------------ running
def run_workload(args: argparse.Namespace) -> dict[str, Any]:
    import workloads
    from spans import Tracer

    mode = "smoke" if args.smoke else "full"
    workload = workloads.make_workload(args.workload, args.seed, WORK_DIR, smoke=args.smoke)
    tracer = Tracer() if args.trace else None

    setup_times = []
    for repeat in range(SETUP_REPEATS):
        if tracer is not None:
            tracer.trace_id = f"setup-{repeat}"
        started = time.perf_counter()
        _import_in_fresh_interpreter(workload.imports)
        workload.setup(tracer)
        setup_times.append(time.perf_counter() - started)

    reference = load_expected(mode, args.workload) if args.seed == DEFAULT_SEED else None
    checker = Checker(reference)
    untraced: list[Any] = []
    traced: list[tuple[str, Any]] = []
    longest = 0.0
    began = time.perf_counter()
    index = 0
    while index < MIN_PASSES or time.perf_counter() - began + longest <= args.seconds:
        if tracer is not None and index % 2 == 1:
            trace_id = f"pass-{index}"
            tracer.trace_id = trace_id
            workload.instrument(tracer)
            try:
                with tracer.span("perfbench.pass"):
                    result = workload.run_pass(tracer)
            finally:
                tracer.restore()
            traced.append((trace_id, result))
        else:
            result = workload.run_pass(None)
            untraced.append(result)
        longest = max(longest, result.wall)
        checker.check(index, result)
        index += 1

    session_path = os.path.join(
        WORK_DIR, f"session-{args.workload}-{mode}-seed{args.seed}-{_source_digest()}.json"
    )
    checker.check_session(session_path)

    peak_rss_mb = _peak_rss_mb()
    # Calibrated last, so its allocations do not count in the peak RSS.
    calibration = _calibrate()
    if tracer is None:
        metrics = {
            "setup_s": _median(setup_times),
            "work_per_s": _median([r.work / r.wall for r in untraced]),
            "peak_rss_mb": peak_rss_mb,
        }
        units = _metric_units("end_to_end")
    else:
        metrics = layer_metrics(untraced, traced, tracer, calibration)
        units = _metric_units("per_layer")
        tracer.write(
            os.path.join(WORK_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        )
    return {
        "workload": args.workload,
        "unit": workload.unit,
        "seed": args.seed,
        "mode": mode,
        "trace": args.trace,
        "passes": index,
        "pass_walls": [r.wall for r in untraced] + [r.wall for _, r in traced],
        "setup_times": setup_times,
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "seed_loop_events_per_s": calibration,
        },
        "problems": checker.problems,
        "correct": checker.failed == 0 and not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def layer_metrics(
    untraced: list[Any], traced: list[tuple[str, Any]], tracer: Any, calibration: float
) -> dict[str, float]:
    """Per-layer metrics: counts from the first pass, timings from the
    untraced passes, shares and spans from the traced ones (medians)."""
    from workloads import WORKERS

    counts = (untraced or [r for _, r in traced])[0].counts
    traced_results = [r for _, r in traced]

    def share(*stages: str) -> float:
        return _median([sum(r.shares.get(s, 0.0) for s in stages) for r in traced_results])

    totals = [tracer.totals(trace_id) for trace_id, _ in traced]
    self_totals = [tracer.totals(trace_id, self_time=True) for trace_id, _ in traced]

    def span_total(name: str, table: list[dict[str, float]] = totals) -> float:
        return _median([entry.get(name, 0.0) for entry in table])

    # Outermost appends only: append() and append_aggregate() delegate to
    # append_record(), whose nested span must not count twice.
    pass_ids = {trace_id for trace_id, _ in traced}
    store_span = "store.SweepWriter."
    names = {record.span_id: record.name for record in tracer.spans}
    appends = [
        record.duration * 1000.0
        for record in tracer.spans
        if record.trace_id in pass_ids
        and record.name.startswith(store_span)
        and not names.get(record.parent_id, "").startswith(store_span)
    ]
    tail_pct, tail = _tail(appends)
    # Runner overhead per pass: every worker's share of the driver's
    # run_stored wall time that no run kept busy.
    busy = [r.layer.get("runner.worker_busy_s", 0.0) for r in traced_results]
    overhead = [
        WORKERS * entry["experiments.runner.run_stored"] - pass_busy
        for entry, pass_busy in zip(totals, busy)
        if "experiments.runner.run_stored" in entry
    ]
    untraced_wall = _median([r.wall for r in untraced])
    events = counts.get("netsim.events", 0)
    return {
        "netsim.events": events,
        "netsim.packets": counts.get("netsim.packets", 0),
        "netsim.us_per_event": _median(
            [r.sim_seconds / events * 1e6 for r in untraced if events]
        ),
        "netsim.heap_share": share("heap"),
        "netsim.burst_drain_share": share("burst_drain"),
        "netsim.datapath_share": share("defrag", "checksum", "demux", "handler"),
        "netsim.dispatch_other_share": share("dispatch_other"),
        "faults.share": share("faults"),
        "faults.dropped": counts.get("faults.dropped", 0),
        "faults.duplicated": counts.get("faults.duplicated", 0),
        "faults.corrupted": counts.get("faults.corrupted", 0),
        "codec.decode_share": share("decode"),
        "codec.encode_share": share("encode"),
        "core.campaign_send_share": share("campaign_send"),
        "core.progress_check_share": share("progress_check"),
        "core.attack_run_s": span_total("core.RunTimeAttack.run"),
        "testbed.build_s": span_total("testbed.build_testbed"),
        "population.generate_s": span_total("population.generate_fleet"),
        "population.run_fleet_self_s": span_total("population.run_fleet", self_totals),
        "chaos.compile_s": _median(tracer.durations("population.chaos.compile_chaos")),
        "chaos.resim_ratio": counts.get("chaos.resim_ratio", 0.0),
        "runner.worker_busy_s": _median(busy),
        "runner.overhead_s": _median(overhead),
        "runner.retries": _median([r.layer.get("runner.retries", 0) for r in traced_results]),
        "runner.crashes": _median([r.layer.get("runner.crashes", 0) for r in traced_results]),
        "store.append_ms": _median(appends),
        "store.append_ms.tail": tail,
        "store.append_ms.tail_pct": tail_pct,
        "store.records": counts.get("store.records", 0),
        "store.bytes": _median([r.layer.get("store.bytes", 0) for r in untraced]),
        "trace.overhead_share": (
            (_median([r.wall for r in traced_results]) - untraced_wall) / untraced_wall
            if untraced_wall
            else 0.0
        ),
        "host.seed_loop_events_per_s": calibration,
    }


def print_report(result: dict[str, Any]) -> None:
    """Human-readable lines (the JSON result line follows them)."""
    host = result["host"]
    attempted = result["attempted"]
    print(
        f"perfbench {result['workload']} seed={result['seed']} mode={result['mode']} "
        f"trace={result['trace']} passes={result['passes']}"
    )
    print(
        f"  host: cpus={host['cpu_count']} python={host['python']} "
        f"calibration seed_loop_events_per_s={host['seed_loop_events_per_s']:.0f}"
    )
    named = {"work_per_s": f"{result['unit']}_per_s"}
    for name, metric in result["metrics"].items():
        label = named.get(name, name)
        print(f"  {label:<30} {metric['value']:>14.6g} {metric['unit']}")
    print(
        f"  {'failed_share':<30} {result['failed'] / max(attempted, 1):>14.6g} "
        f"({result['failed']}/{attempted} operations)"
    )
    for problem in result["problems"]:
        print(f"  FAILED {problem}")


def record_expected() -> None:
    """Rewrite ``expected.json``: one pass of each workload at seed 0."""
    import workloads

    document: dict[str, Any] = {"default_seed": DEFAULT_SEED}
    for mode in ("full", "smoke"):
        for name in WORKLOADS:
            workload = workloads.make_workload(
                name, DEFAULT_SEED, WORK_DIR, smoke=mode == "smoke"
            )
            result = workload.run_pass(None)
            document.setdefault(mode, {})[name] = {
                "outputs": result.outputs,
                "counts": {key: result.counts[key] for key in EXACT_COUNTS if key in result.counts},
            }
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


def run_all(args: argparse.Namespace) -> dict[str, Any]:
    """Each workload in its own process; one combined result."""
    combined: dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [
            sys.executable, os.path.abspath(__file__),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        completed = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
        lines = completed.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if completed.returncode != 0 or not lines:
            raise BenchmarkError(f"{name} failed:\n{completed.stderr}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=_benchmark()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs")
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args(argv)
    try:
        _check_checkout()
        os.makedirs(WORK_DIR, exist_ok=True)
        if args.record_expected:
            record_expected()
            return 0
        if args.workload == "all":
            result = run_all(args)
        else:
            result = run_workload(args)
            with open(
                os.path.join(
                    WORK_DIR,
                    f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
                ),
                "w",
                encoding="utf-8",
            ) as handle:
                json.dump(result, handle, indent=1)
            print_report(result)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(
        json.dumps(
            {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
