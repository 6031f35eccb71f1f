#!/usr/bin/env python3
"""The edge testbed's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload replay-warm --seed 42 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --trace 1     # every table

``--trace 0`` repeats build + timed replay of the workload until
``--seconds`` have passed (at least three times) and reports the host-side
end-to-end metrics in nominal seconds (host seconds rescaled by a
reference loop timed during them, see ``calibration.py``), as medians
over the repetitions and over many set-ups.  ``--trace 1`` runs the
workload once untraced (for counters and the overhead baseline), once
with spans at every layer boundary (per-layer self time, Chrome trace
written under ``.perfbench/``), and once under tracemalloc, and reports
the per-layer metrics.  Both modes print the client-visible simulated results
(latency percentiles, error ratio) in their table.

Output checks — any failure prints ``"correct": false`` and exits 1:

* every repetition yields the same latency (and migration) md5;
* ``federation-sharded``: SerialExecutor and ParallelCoordinator give
  the same latency and migration md5 for the same plan;
* ok + failed equals issued on every replay;
* at seed 42, ``replay-warm`` reproduces the 10x row of
  ``BENCH_PR3.json`` (latency md5 and kernel event count);
* the traced and tracemalloc runs yield the untraced run's latency md5.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 2
means the program under test is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
import typing as _t

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The 10x bigFlows replay at seed 42, as recorded in BENCH_PR3.json.
PINNED_SEED = 42
PINNED_REPLAY_WARM = {
    "latency_md5": "992406cfc755dceb07c67600430ba91e",
    "events": 537_974,
}
#: Never used while tuning the program; a claimed gain must hold on it too.
HELD_OUT_SEED = 7919
#: Repetitions per ``--trace 0`` run, at least.
MIN_REPETITIONS = 3
#: Set-ups measured per ``--trace 0`` run (at least one per repetition);
#: each takes about 0.1 s, so many fit and their median holds still.
MIN_SETUPS = 21
#: Spans written to the Chrome trace file (the first ones in time).
TRACE_EXPORT_LIMIT = 200_000


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True,
        help="replay-warm, deploy-churn, federation-sharded, or all",
    )
    parser.add_argument(
        "--seed", type=int, default=PINNED_SEED,
        help=f"workload seed (default {PINNED_SEED}); performance claims must "
        f"also hold on the held-out seed {HELD_OUT_SEED}",
    )
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--small", action="store_true",
        help="reduced-size workloads (for the benchmark's own tests)",
    )
    parser.add_argument(
        "--forge", choices=("md5", "accounting"),
        help="tamper with one replay's outcome, to show the output checks "
        "fail the run (for the benchmark's own tests)",
    )
    parser.add_argument(
        "--trace-dir", default=str(ROOT / ".perfbench"),
        help="where --trace 1 writes Chrome trace-event JSON",
    )
    return parser.parse_args(argv)


def _peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Checks:
    """Collects output-check failures."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def accounting(self, label: str, outcome: _t.Any) -> None:
        self.expect(
            outcome.ok + outcome.failed == outcome.issued,
            f"{label}: ok {outcome.ok} + failed {outcome.failed} != "
            f"issued {outcome.issued}",
        )


def _forge(outcome: _t.Any, how: str | None) -> None:
    if how == "md5":
        outcome.latency_md5 = "0" * 32
    elif how == "accounting":
        outcome.ok += 1


def _client_metrics(outcome: _t.Any) -> dict[str, float | None]:
    from perfbench.stats import error_ratio, percentile

    lat = outcome.latencies_ms
    return {
        "latency_p50_ms": percentile(lat, 0.5),
        "latency_p99_ms": percentile(lat, 0.99),
        "latency_p999_ms": percentile(lat, 0.999),
        "error_ratio": error_ratio(outcome.failed, outcome.issued),
    }


def _pinned_check(workload: _t.Any, args: argparse.Namespace, outcome: _t.Any,
                  checks: Checks) -> None:
    if workload.name != "replay-warm" or args.small or args.seed != PINNED_SEED:
        return
    checks.expect(
        outcome.latency_md5 == PINNED_REPLAY_WARM["latency_md5"],
        f"replay-warm seed 42 latency md5 {outcome.latency_md5} != "
        f"BENCH_PR3.json 10x row {PINNED_REPLAY_WARM['latency_md5']}",
    )
    checks.expect(
        outcome.events == PINNED_REPLAY_WARM["events"],
        f"replay-warm seed 42 events {outcome.events} != "
        f"BENCH_PR3.json 10x row {PINNED_REPLAY_WARM['events']}",
    )


def _parity(checks: Checks, serial: _t.Any, parallel: _t.Any) -> None:
    checks.accounting("parallel executor", parallel)
    checks.expect(
        parallel.latency_md5 == serial.latency_md5,
        f"parallel latency md5 {parallel.latency_md5} != serial "
        f"{serial.latency_md5}",
    )
    checks.expect(
        parallel.migration_md5 == serial.migration_md5,
        f"parallel migration md5 {parallel.migration_md5} != serial "
        f"{serial.migration_md5}",
    )


# -- timing ----------------------------------------------------------------------


def _set_up(workload: _t.Any, seed: int) -> tuple[_t.Any, float, float]:
    """Build once: the prepared state, its host and nominal seconds."""
    from perfbench.calibration import Calibration

    gc.collect()
    calibration = Calibration()
    with calibration.ticking():
        prepared = workload.build(seed)
    return prepared, calibration.host_s, calibration.nominal_s


def _timed_replay(workload: _t.Any, prepared: _t.Any) -> tuple[_t.Any, float]:
    """Replay (serial executor) with the reference loop timed around and
    inside it; the outcome's ``replay_s`` excludes the loops' time.
    Returns the outcome and its nominal seconds."""
    from perfbench.calibration import Calibration

    calibration = Calibration()
    outcome = workload.replay(prepared, serial=True, around=calibration.ticking)
    outcome.replay_s = calibration.host_s
    return outcome, calibration.nominal_s


# -- --trace 0 -------------------------------------------------------------------


def run_end_to_end(workload: _t.Any, args: argparse.Namespace) -> dict[str, _t.Any]:
    """Repeat build + replay for ``--seconds``; host-side metrics."""
    checks = Checks()
    setups: list[tuple[float, float]] = []
    outcomes = []
    nominal_s: list[float] = []
    started = time.perf_counter()
    while True:
        prepared, *setup = _set_up(workload, args.seed)
        setups.append(tuple(setup))
        outcome, nominal = _timed_replay(workload, prepared)
        del prepared
        if outcomes:
            # Only the md5 is compared; holding every repetition's
            # samples would make peak RSS grow with the repetition count.
            outcome.latencies_ms = []
        if len(outcomes) == 1:
            _forge(outcome, args.forge)
        outcomes.append(outcome)
        nominal_s.append(nominal)
        if (len(outcomes) >= MIN_REPETITIONS
                and time.perf_counter() - started >= args.seconds):
            break
    while len(setups) < MIN_SETUPS:
        _prepared, *setup = _set_up(workload, args.seed)
        setups.append(tuple(setup))

    first = outcomes[0]
    for i, outcome in enumerate(outcomes):
        checks.accounting(f"repetition {i + 1}", outcome)
        checks.expect(
            outcome.latency_md5 == first.latency_md5,
            f"repetition {i + 1} latency md5 {outcome.latency_md5} != "
            f"repetition 1 {first.latency_md5}",
        )
        checks.expect(
            outcome.migration_md5 == first.migration_md5,
            f"repetition {i + 1} migration md5 differs from repetition 1",
        )
    attempted = sum(o.issued for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    if first.stats is not None:
        gc.collect()
        parallel = workload.replay(workload.build(args.seed))
        _parity(checks, first, parallel)
        attempted += parallel.issued
        failed += parallel.failed
    _pinned_check(workload, args, first, checks)

    metrics = {
        "requests_per_nominal_s": first.issued / statistics.median(nominal_s),
        "setup_s": statistics.median(nominal for _host, nominal in setups),
        "peak_rss_mib": _peak_rss_mib(),
    }
    info = {
        "repetitions": len(outcomes),
        "setups": len(setups),
        "replay_host_s": [round(o.replay_s, 3) for o in outcomes],
        "replay_nominal_s": [round(n, 3) for n in nominal_s],
        "requests_per_host_s": first.issued / statistics.median(
            o.replay_s for o in outcomes
        ),
        "setup_host_s": statistics.median(host for host, _nominal in setups),
        "requests": first.issued,
        "events": first.events,
        "latency_md5": first.latency_md5,
        **_client_metrics(first),
    }
    return {"checks": checks, "attempted": attempted, "failed": failed,
            "metrics": metrics, "info": info}


# -- --trace 1 -------------------------------------------------------------------


def run_per_layer(workload: _t.Any, args: argparse.Namespace) -> dict[str, _t.Any]:
    """Untraced run, traced run, tracemalloc run; per-layer metrics."""
    from perfbench import tracing

    checks = Checks()

    # 1. Untraced: counters and the overhead baseline; for the sharded
    # kernel also one parallel run (parity, RunStats).
    prepared, setup_host_s, setup_s = _set_up(workload, args.seed)
    base, base_nominal_s = _timed_replay(workload, prepared)
    del prepared
    _forge(base, args.forge)
    checks.accounting("untraced", base)
    _pinned_check(workload, args, base, checks)
    outcomes = [base]
    par_stats = None
    if base.stats is not None:
        gc.collect()
        parallel = workload.replay(workload.build(args.seed))
        _parity(checks, base, parallel)
        outcomes.append(parallel)
        par_stats = parallel.stats
    untraced_rss = _peak_rss_mib()

    # 2. Traced (federation: the serial executor — spans do not cross
    # the worker pipe).
    gc.collect()
    tracer = tracing.Tracer().install()
    try:
        prepared = workload.build(args.seed)
        tracer.log.reset()
        traced = workload.replay(prepared, serial=True)
    finally:
        tracer.uninstall()
    del prepared
    outcomes.append(traced)
    log = tracer.log
    checks.accounting("traced", traced)
    wall = traced.replay_s
    layers = tracing.layer_self_times(log, wall)
    trace_dir = pathlib.Path(args.trace_dir)
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_path = trace_dir / f"{workload.name}-seed{args.seed}.trace.json"
    exported = tracing.write_chrome_trace(
        log, trace_path, log.starts[0] if len(log) else 0.0, TRACE_EXPORT_LIMIT
    )
    n_spans = len(log)

    def calls(*names: str) -> int:
        return sum(log.call_count(n) for n in names)

    fast = calls("net.route_cache:OpenFlowSwitch._fast_hop")
    hops = fast + calls("net.openflow:OpenFlowSwitch._pipeline")
    counted = {
        "net.openflow.lookups": calls("net.openflow:FlowTable.lookup"),
        "net.openflow.installs": calls("net.openflow:FlowTable.install"),
        "net.openflow.sweeps": calls("net.openflow:FlowTable.sweep_and_deadline"),
        "net.openflow.expired": log.tally("net.openflow:FlowTable.sweep_and_deadline"),
        "net.openflow.packet_ins": calls("net.openflow:OpenFlowSwitch._punt"),
        "net.fast_path_ratio": fast / hops if hops else 0.0,
        "net.host.connections": calls("net.host:Host.connect"),
        "net.link.transmits": calls("net.link:LinkEndpoint.transmit"),
        "k8s.list_calls": calls("k8s:APIServer.list", "k8s:APIServer.list_nowait"),
        "core.federation.updates_delivered": calls(
            "core.federation:SharedStateHub.deliver"
        ),
    }
    del tracer, log
    gc.collect()

    # 3. tracemalloc: allocation peak per request.
    prepared = workload.build(args.seed)
    tracemalloc.start()
    try:
        allocated = workload.replay(prepared, serial=True)
        _current, alloc_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del prepared
    outcomes.append(allocated)
    checks.accounting("tracemalloc", allocated)
    for outcome in outcomes:
        checks.expect(
            outcome.latency_md5 == base.latency_md5,
            f"latency md5 {outcome.latency_md5} != untraced run {base.latency_md5}",
        )

    counters = base.counters
    deployments = counters.get("core.deployments", 0)
    deploy_waste = counters.get("core.deploy_failures", 0) + counters.get(
        "core.deploy_retries", 0
    )
    unattributed = layers.get(tracing.UNATTRIBUTED, 0.0)
    metrics: dict[str, float | None] = {
        **_client_metrics(base),
        "sim.events": base.events,
        "sim.events_per_host_s": base.events / base.replay_s,
        "net.openflow.table_peak": counters.get("net.openflow.table_peak", 0),
        **counted,
        "core.dispatched": counters.get("core.dispatched", 0),
        "core.deployments": deployments,
        "core.scale_downs": counters.get("core.scale_downs", 0),
        "core.deploy_failed_ratio": deploy_waste / deployments if deployments else 0.0,
        "core.deploy_p50_ms": counters.get("core.deploy_p50_ms", 0.0),
        "cluster.scale_up_p50_ms": counters.get("cluster.scale_up_p50_ms", 0.0),
        "cluster.wait_ready_p50_ms": counters.get("cluster.wait_ready_p50_ms", 0.0),
        "k8s.apiserver_requests": counters.get("k8s.apiserver_requests", 0),
        "k8s.apiserver_events": counters.get("k8s.apiserver_events", 0),
        "core.federation.cross_site_redirects": counters.get(
            "core.federation.cross_site_redirects", 0
        ),
        "core.migration.completed": counters.get("core.migration.completed", 0),
        "ops.collections": counters.get("ops.collections", 0),
        "mem.alloc_bytes_per_request": alloc_peak / allocated.issued,
        "trace.overhead_ratio": wall / base.replay_s,
        "trace.attributed_ratio": (wall - unattributed) / wall,
    }
    for layer in ("sim", "net.openflow", "net.route_cache", "net.host", "net.link",
                  "core", "cluster", "containers", "k8s", "core.federation",
                  "core.migration", "ops", "workload", "sim.parallel"):
        metrics[f"{layer}.self_s"] = layers.get(layer, 0.0)
    busiest = max((p.busy_s for p in par_stats.partitions), default=0.0) if par_stats else 0.0
    metrics.update({
        "sim.parallel.rounds": par_stats.rounds if par_stats else 0,
        "sim.parallel.payload_rounds": par_stats.payload_rounds if par_stats else 0,
        "sim.parallel.null_messages": par_stats.null_messages if par_stats else 0,
        "sim.parallel.cross_partition_messages": (
            par_stats.cross_partition_messages if par_stats else 0
        ),
        "sim.parallel.worker_busy_s": busiest,
        "sim.parallel.barrier_wait_s": par_stats.wall_s - busiest if par_stats else 0.0,
        "sim.parallel.serial_wall_s": base.replay_s if par_stats else 0.0,
        "sim.parallel.speedup": base.replay_s / par_stats.wall_s if par_stats else 0.0,
    })
    info = {
        "requests_per_nominal_s": base.issued / base_nominal_s,
        "requests_per_host_s": base.issued / base.replay_s,
        "setup_s": setup_s,
        "setup_host_s": setup_host_s,
        "peak_rss_mib": untraced_rss,
        "traced_wall_s": round(wall, 3),
        "untraced_wall_s": round(base.replay_s, 3),
        "spans": n_spans,
        "chrome_trace": f"{trace_path} ({exported} of {n_spans} spans)",
        "layers": layers,
        "latency_md5": base.latency_md5,
    }
    return {
        "checks": checks,
        "attempted": sum(o.issued for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": metrics,
        "info": info,
    }


# -- output ------------------------------------------------------------------------


def _print_report(workload: _t.Any, seed: int, mode: str,
                  result: dict[str, _t.Any]) -> None:
    from perfbench import spec

    info = result["info"]
    print(f"== {workload.name} ({mode}, seed {seed}) ==")
    print(f"  parameters: {json.dumps(workload.describe())}")
    for key, value in info.items():
        if key != "layers" and key not in spec.BY_NAME:
            print(f"  {key}: {value}")
    print(f"  {'metric':40s} {'value':>16s}  unit")
    # Every metric the run has, in either mode: the end-to-end ones of
    # a --trace 1 run come from its single untraced replay.
    shown = dict(result["metrics"])
    for key, value in info.items():
        if key in spec.BY_NAME:
            shown.setdefault(key, value)
    for key, value in shown.items():
        unit = spec.BY_NAME[key].unit
        text = "n/a" if value is None else f"{value:16.6g}"
        print(f"  {key:40s} {text:>16s}  {unit}")
    layers = info.get("layers")
    if layers:
        wall = info["traced_wall_s"]
        print(f"  per-layer self time of the traced replay ({wall:.3f} s wall; "
              f"sim includes the kernel time no dispatch covers):")
        for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
            print(f"    {layer:20s} {seconds:9.3f} s {100 * seconds / wall:6.1f}%")
        print(f"    unattributed remainder {layers.get('unattributed', 0.0):.3f} s; "
              f"trace.overhead_ratio {result['metrics']['trace.overhead_ratio']:.3f}")
    for failure in result["checks"].failures:
        print(f"  CHECK FAILED: {failure}")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_args(argv)
    for entry in (ROOT / "src", ROOT):
        if str(entry) not in sys.path:
            sys.path.insert(0, str(entry))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: the program under test is missing ({ROOT / 'src'})",
              file=sys.stderr)
        return 2
    from perfbench import spec
    from perfbench.workloads import workloads

    available = workloads(small=args.small)
    if args.workload == "all":
        # One fresh process per workload, as when each is run alone: a
        # forked worker must not inherit an earlier workload's heap.
        status = 0
        for name in available:
            proc = subprocess.run([sys.executable, __file__, *argv, "--workload", name])
            status = max(status, proc.returncode)
        return status
    if args.workload not in available:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = available[args.workload]
    runner = run_per_layer if args.trace else run_end_to_end
    result = runner(workload, args)
    _print_report(workload, args.seed, f"trace {args.trace}", result)
    correct = not result["checks"].failures
    wanted = spec.PER_LAYER if args.trace else spec.END_TO_END
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m.name: {"value": result["metrics"][m.name], "unit": m.unit}
            for m in wanted
        },
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
