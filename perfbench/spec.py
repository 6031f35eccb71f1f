"""What the benchmark measures: every metric with its unit, direction,
layer, and the end-to-end metric and workload it should move.

``BENCHMARK.json`` at the repository root carries the subset of these
fields its schema allows; ``test_perfbench.py`` checks the two agree.
Run ``python3 perfbench/spec.py`` to print the full table.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    layer: str
    #: End-to-end metric a change in this one should move.
    moves: str
    #: Workload that exercises it (and, in parentheses, the ones that
    #: bypass it, where the prediction is no change).
    workload: str
    what: str
    #: Regression bound (share of the parent's median); end-to-end only.
    bound: float | None = None


ALL = "all"
RW, DC, FS = "replay-warm", "deploy-churn", "federation-sharded"

#: Host-measured, rescaled to nominal seconds, reported with ``--trace 0``.
END_TO_END = (
    Metric("requests_per_nominal_s", "req/s", "higher", "end-to-end", "-", ALL,
           "simulated requests completed / nominal seconds of the timed "
           "replay: its host seconds rescaled by a reference loop timed "
           "every 0.1 s during it (median over the repetitions of one run; "
           "federation-sharded: SerialExecutor replays)", bound=0.25),
    Metric("setup_s", "s", "lower", "end-to-end", "-", ALL,
           "nominal seconds to build the testbed or replay plan and reach the "
           "first request: host seconds rescaled by the reference loop timed "
           "around and during it (median of the set-ups of one run)", bound=0.25),
    Metric("peak_rss_mib", "MiB", "lower", "end-to-end", "-", ALL,
           "peak resident memory; federation-sharded: largest of coordinator "
           "and workers", bound=0.1),
)

_RPS = "requests_per_nominal_s"
_BYPASS_FS = f"{RW}, {DC} ({FS}: small tables)"

#: Reported with ``--trace 1``.  ``self_s`` figures come from the
#: traced run; everything else is a count or a simulated-time figure.
PER_LAYER = (
    # Simulated results: deterministic per seed, so a pure speed-up
    # leaves them identical.
    Metric("latency_p50_ms", "sim_ms", "lower", "client", "-", ALL,
           "median client time_total (simulated)"),
    Metric("latency_p99_ms", "sim_ms", "lower", "client", "-", ALL,
           "p99 client time_total (simulated)"),
    Metric("latency_p999_ms", "sim_ms", "lower", "client", "-", ALL,
           "p99.9 client time_total (simulated); >= 10 samples lie beyond it"),
    Metric("error_ratio", "ratio", "lower", "client", "-", ALL,
           "failed, refused or timed-out requests / requests attempted"),
    Metric("sim.events", "count", "lower", "sim", _RPS, f"{RW} (all)",
           "kernel events processed in the timed replay"),
    Metric("sim.events_per_host_s", "1/s", "higher", "sim", _RPS, f"{RW} (all)",
           "kernel events / host seconds of the untraced replay"),
    Metric("sim.self_s", "s", "lower", "sim", _RPS, f"{RW} (all)",
           "kernel loop time no dispatch covers, plus dispatches into repro.sim"),
    Metric("net.openflow.self_s", "s", "lower", "net.openflow", _RPS, _BYPASS_FS,
           "switch pipeline and flow table self time"),
    Metric("net.openflow.lookups", "count", "lower", "net.openflow", _RPS, _BYPASS_FS,
           "FlowTable.lookup calls"),
    Metric("net.openflow.table_peak", "count", "lower", "net.openflow", _RPS, _BYPASS_FS,
           "largest flow table size (FlowTable.peak_size)"),
    Metric("net.openflow.installs", "count", "lower", "net.openflow", _RPS,
           f"{DC} writes, {RW} large table", "FlowTable.install calls"),
    Metric("net.openflow.sweeps", "count", "lower", "net.openflow", _RPS,
           f"{DC} writes, {RW} large table", "FlowTable.sweep_and_deadline calls"),
    Metric("net.openflow.expired", "count", "lower", "net.openflow", _RPS,
           f"{DC} writes, {RW} large table", "entries the sweeps expired"),
    Metric("net.openflow.packet_ins", "count", "lower", "net.openflow", _RPS,
           f"{DC} writes, {RW} large table", "table misses punted to the controller"),
    Metric("net.route_cache.self_s", "s", "lower", "net.route_cache", _RPS, RW,
           "fast-path hop replay, recording and invalidation self time"),
    Metric("net.fast_path_ratio", "ratio", "higher", "net.route_cache", _RPS, RW,
           "switch hops replayed from the route cache / all switch hops"),
    Metric("net.host.self_s", "s", "lower", "net.host", _RPS, RW, "host TCP/HTTP self time"),
    Metric("net.host.connections", "count", "lower", "net.host", _RPS, RW,
           "Host.connect calls"),
    Metric("net.link.self_s", "s", "lower", "net.link", _RPS, RW, "link self time"),
    Metric("net.link.transmits", "count", "lower", "net.link", _RPS, RW,
           "LinkEndpoint.transmit calls"),
    Metric("core.self_s", "s", "lower", "core", _RPS, f"{DC} ({RW})",
           "controller and dispatcher self time"),
    Metric("core.dispatched", "count", "lower", "core", _RPS, f"{DC} ({RW})",
           "packet-ins the controller dispatched"),
    Metric("core.deployments", "count", "lower", "core", _RPS, f"{DC} ({RW})",
           "on-demand deployments started"),
    Metric("core.scale_downs", "count", "lower", "core", _RPS, f"{DC} ({RW})",
           "idle scale-downs"),
    Metric("core.deploy_failed_ratio", "ratio", "lower", "core", _RPS, f"{DC} ({RW})",
           "(failed deploys + deploy retries) / deployments"),
    Metric("core.deploy_p50_ms", "sim_ms", "lower", "core", "latency_p99_ms",
           f"{DC} ({RW})", "median deployment time (simulated)"),
    Metric("cluster.scale_up_p50_ms", "sim_ms", "lower", "cluster", "latency_p99_ms",
           f"{DC} ({RW})", "median Scale Up phase (simulated)"),
    Metric("cluster.wait_ready_p50_ms", "sim_ms", "lower", "cluster", "latency_p999_ms",
           f"{DC} ({RW})", "median readiness wait (simulated)"),
    Metric("cluster.self_s", "s", "lower", "cluster", _RPS, f"{DC} ({RW}: Docker only)",
           "edge-cluster adapter self time"),
    Metric("containers.self_s", "s", "lower", "containers", _RPS,
           f"{DC} ({RW}: Docker only)", "container runtime self time"),
    Metric("k8s.self_s", "s", "lower", "k8s", _RPS, f"{DC} ({RW}: Docker only)",
           "Kubernetes control plane self time"),
    Metric("k8s.apiserver_requests", "count", "lower", "k8s", _RPS,
           f"{DC} ({RW}: Docker only)", "APIServer.stats requests"),
    Metric("k8s.apiserver_events", "count", "lower", "k8s", _RPS,
           f"{DC} ({RW}: Docker only)", "APIServer.stats watch events"),
    Metric("k8s.list_calls", "count", "lower", "k8s", _RPS,
           f"{DC} ({RW}: Docker only)", "APIServer.list and list_nowait calls"),
    Metric("core.federation.self_s", "s", "lower", "core.federation", _RPS,
           f"{FS} (others)", "shared-state replication self time"),
    Metric("core.federation.updates_delivered", "count", "lower", "core.federation",
           _RPS, f"{FS} (others)", "SharedStateHub.deliver calls"),
    Metric("core.federation.cross_site_redirects", "count", "lower", "core.federation",
           _RPS, f"{FS} (others)", "requests served from another site"),
    Metric("core.migration.self_s", "s", "lower", "core.migration", _RPS,
           f"{FS} (others)", "live migration self time"),
    Metric("core.migration.completed", "count", "higher", "core.migration", _RPS,
           f"{FS} (others)", "migrations completed"),
    Metric("ops.self_s", "s", "lower", "ops", _RPS, f"{FS} (collector off elsewhere)",
           "ops plane self time"),
    Metric("ops.collections", "count", "lower", "ops", _RPS,
           f"{FS} (collector off elsewhere)", "flow-stats collector polls"),
    Metric("sim.parallel.self_s", "s", "lower", "sim.parallel", _RPS,
           f"{FS} (others)", "round engine, partition exchange and site builds "
           "(traced serial run)"),
    Metric("sim.parallel.rounds", "count", "lower", "sim.parallel", _RPS,
           f"{FS} (others)", "synchronization rounds (RunStats)"),
    Metric("sim.parallel.payload_rounds", "count", "lower", "sim.parallel", _RPS,
           f"{FS} (others)", "rounds that carried packets"),
    Metric("sim.parallel.null_messages", "count", "lower", "sim.parallel", _RPS,
           f"{FS} (others)", "bound-only messages sent"),
    Metric("sim.parallel.cross_partition_messages", "count", "lower", "sim.parallel",
           _RPS, f"{FS} (others)", "payload messages sent across cuts"),
    Metric("sim.parallel.worker_busy_s", "s", "lower", "sim.parallel", _RPS,
           f"{FS} (others)", "busy seconds of the busiest worker"),
    Metric("sim.parallel.barrier_wait_s", "s", "lower", "sim.parallel", _RPS,
           f"{FS} (others)", "parallel wall seconds minus the busiest worker's busy time"),
    Metric("sim.parallel.serial_wall_s", "s", "lower", "sim.parallel", _RPS,
           f"{FS} (others)", "wall seconds of the same plan under SerialExecutor"),
    Metric("sim.parallel.speedup", "ratio", "higher", "sim.parallel", _RPS,
           f"{FS} (others)", "serial wall / parallel wall"),
    Metric("workload.self_s", "s", "lower", "workload", _RPS, ALL,
           "trace driver, timecurl and metrics recorder self time"),
    Metric("mem.alloc_bytes_per_request", "B", "lower", "mem", "peak_rss_mib", RW,
           "tracemalloc peak bytes during the replay / requests"),
    Metric("trace.overhead_ratio", "ratio", "lower", "trace", "-", ALL,
           "traced replay wall / untraced replay wall"),
    Metric("trace.attributed_ratio", "ratio", "higher", "trace", "-", ALL,
           "share of traced wall time owned by a program layer or the kernel"),
)

BY_NAME = {m.name: m for m in END_TO_END + PER_LAYER}


def benchmark_json(workloads: dict) -> dict:
    """The ``BENCHMARK.json`` document for these metrics."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 25,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


if __name__ == "__main__":
    for metric in END_TO_END + PER_LAYER:
        bound = f" bound {metric.bound}" if metric.bound is not None else ""
        print(f"{metric.name:40s} {metric.unit:7s} {metric.better:6s} "
              f"layer={metric.layer} moves={metric.moves} on={metric.workload}{bound}")
