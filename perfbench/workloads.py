"""The benchmark's three workloads, built from a seed and run from outside.

Each workload has two phases the runner times separately:

* ``build(seed)`` — generate the trace or replay plan and build the
  program state up to the first request (this is ``setup_s``);
* ``replay(prepared)`` — run the timed replay and return a
  :class:`Outcome` with the simulated results and the counters the
  program's objects already expose.

The program receives only the generated inputs: a ``RequestEvent``
trace for the C3 testbed workloads, a ``TestbedReplay`` plan for the
sharded federation.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import time
from statistics import median
import typing as _t

from perfbench.stats import is_failure
from repro.services.catalog import NGINX
from repro.sim.parallel import ParallelCoordinator, SerialExecutor
from repro.sim.parallel.model import BACKBONE
from repro.sim.parallel.partition import Partition
from repro.sim.parallel.testbed import (
    SitePartitionModel,
    build_migration_replay,
    combined_fingerprint,
    replay_topology,
)
from repro.testbed import C3Testbed, TestbedConfig
from repro.testbed.federation import FederationConfig
from repro.workload import BigFlowsParams, TraceDriver, generate_trace

#: A context-manager factory the timed span of a replay runs inside.
_Around = _t.Callable[[], _t.ContextManager[_t.Any]]


@dataclasses.dataclass
class Outcome:
    """What one replay produced, as read from the program's objects."""

    issued: int
    ok: int
    failed: int
    #: Simulated ``time_total`` per request in issue order, in ms;
    #: failed requests are ``inf`` (they miss every latency limit).
    latencies_ms: list[float]
    #: Fingerprint of the full simulated latency sequence.
    latency_md5: str
    #: Host seconds of the timed replay.
    replay_s: float
    events: int
    migration_md5: str | None = None
    #: Program counters (deterministic per seed).
    counters: dict[str, float] = dataclasses.field(default_factory=dict)
    #: The sharded kernel's RunStats (None for a single environment).
    stats: _t.Any = None


def fingerprint(values: _t.Iterable[float]) -> str:
    """MD5 over a latency sequence at full float precision."""
    digest = hashlib.md5()
    for value in values:
        digest.update(f"{value:.17g}\n".encode("ascii"))
    return digest.hexdigest()


def _recorder_counts(recorder: _t.Any) -> dict[str, float]:
    """Deploy-path counters and sim-time phase medians (ms) from a
    :class:`~repro.metrics.MetricsRecorder`."""
    def phase(prefix: str) -> float:
        values = [
            v
            for name in recorder.names()
            if name.startswith(prefix)
            for v in recorder.samples(name)
        ]
        return median(values) * 1000.0 if values else 0.0

    counters = recorder.counters()
    return {
        "core.deployments": len(recorder.series("deployments")),
        "core.deploy_failures": sum(
            v for k, v in counters.items() if k.startswith("deploy_failures/")
        ),
        "core.deploy_retries": sum(
            v for k, v in counters.items() if k.startswith("deploy_retries/")
        ),
        "core.deploy_p50_ms": phase("deploy_total/"),
        "cluster.scale_up_p50_ms": phase("scale_up/"),
        "cluster.wait_ready_p50_ms": phase("wait_ready/"),
        "core.federation.cross_site_redirects": sum(
            v for k, v in counters.items() if k.startswith("cross_site_redirects/")
        ),
        "core.migration.completed": sum(
            v for k, v in counters.items() if k.startswith("migrations_completed/")
        ),
        "ops.collections": sum(
            v for k, v in counters.items() if k.startswith("ops/collections/")
        ),
    }


# -- C3 testbed workloads ---------------------------------------------------


@dataclasses.dataclass
class _Prepared:
    testbed: C3Testbed
    driver: TraceDriver
    trace: list


class TestbedWorkload:
    """A bigFlows-shaped trace replayed open-loop against a C3 testbed."""

    __test__ = False  # not a pytest class

    def __init__(
        self,
        name: str,
        cluster: str,
        params: BigFlowsParams,
        auto_scale_down: bool,
        why: str,
    ) -> None:
        self.name = name
        self.cluster = cluster
        self.params = params
        self.auto_scale_down = auto_scale_down
        self.why = why

    def describe(self) -> dict[str, _t.Any]:
        return {
            "cluster": self.cluster,
            "ops": "off",
            "executor": "single environment",
            "trace": {
                "shape": "bigFlows (Zipf-skewed services, open loop)",
                "n_services": self.params.n_services,
                "n_requests": self.params.n_requests,
                "duration_s": self.params.duration_s,
                "n_clients": self.params.n_clients,
            },
            "auto_scale_down": self.auto_scale_down,
        }

    def build(self, seed: int) -> _Prepared:
        tb = C3Testbed(
            TestbedConfig(
                cluster_types=(self.cluster,),
                auto_scale_down=self.auto_scale_down,
            )
        )
        cluster = tb.docker_cluster if self.cluster == "docker" else tb.k8s_cluster
        services = [tb.register_template(NGINX) for _ in range(self.params.n_services)]
        for service in services:
            tb.prepare_created(cluster, service)
        tb.settle(1.0)
        trace = generate_trace(self.params, seed=seed)
        driver = TraceDriver(
            tb.env,
            tb.clients,
            services,
            requests={s.name: NGINX.request for s in services},
            recorder=tb.recorder,
        )
        return _Prepared(tb, driver, trace)

    def replay(self, prepared: _Prepared, serial: bool = False,
               around: _Around = contextlib.nullcontext) -> Outcome:
        """Run the trace (always in one environment: ``serial`` is moot)
        with ``around()`` entered over exactly the timed span."""
        tb = prepared.testbed
        events_before = tb.env.events_processed
        with around():
            t0 = time.perf_counter()
            summary = prepared.driver.run(prepared.trace)
            replay_s = time.perf_counter() - t0
        samples = summary.samples
        table = tb.switch.table
        counters = _recorder_counts(tb.recorder)
        counters.update(
            {
                "net.openflow.table_peak": table.peak_size,
                "core.dispatched": tb.controller.stats["dispatched"],
                "core.scale_downs": tb.controller.stats["scale_downs"],
            }
        )
        kubernetes = getattr(tb, "kubernetes", None)
        if kubernetes is not None:
            counters["k8s.apiserver_requests"] = kubernetes.api.stats["requests"]
            counters["k8s.apiserver_events"] = kubernetes.api.stats["events"]
        failed = sum(1 for s in samples if is_failure(s))
        return Outcome(
            issued=len(prepared.trace),
            ok=len(samples) - failed,
            failed=failed,
            latencies_ms=[
                float("inf") if is_failure(s) else s.time_total * 1000.0
                for s in samples
            ],
            latency_md5=fingerprint(s.time_total for s in samples),
            replay_s=replay_s,
            events=tb.env.events_processed - events_before,
            counters=counters,
        )


# -- the sharded federation -------------------------------------------------


class _LatencyTap:
    """Stands in for a site model's latency digest: forwards every
    update to the real md5 and keeps the simulated ``time_total``."""

    def __init__(self, digest: _t.Any) -> None:
        self._digest = digest
        self.values: list[tuple[int, float]] = []

    def update(self, line: bytes) -> None:
        self._digest.update(line)
        req_id, _, value = line.decode("ascii").rstrip("\n").partition(":")
        self.values.append(
            (int(req_id), float("inf") if value.startswith("!") else float(value))
        )

    def hexdigest(self) -> str:
        return self._digest.hexdigest()


def _measured_site(replay: _t.Any, site: int) -> _t.Any:
    """Partition builder: the program's own site model, with its
    latency digest tapped and its counters added to the result."""
    class MeasuredSite(SitePartitionModel):
        def setup(self, partition: _t.Any) -> None:
            super().setup(partition)
            self._digest = _LatencyTap(self._digest)

        def result(self) -> dict[str, _t.Any]:
            result = super().result()
            result["time_totals"] = self._digest.values
            result["counters"] = {
                **_recorder_counts(self.recorder),
                "net.openflow.table_peak": self.switch.table.peak_size,
                "core.dispatched": self.controller.stats["dispatched"],
                "core.scale_downs": self.controller.stats["scale_downs"],
            }
            return result

    return MeasuredSite(replay, site)


class FederationWorkload:
    """The 2-site federated stack on the sharded kernel, with one
    migration per service and the flow-stats collector on."""

    def __init__(
        self,
        name: str,
        n_sites: int,
        clients_per_site: int,
        n_requests: int,
        duration_s: float,
        why: str,
    ) -> None:
        self.name = name
        self.n_sites = n_sites
        self.clients_per_site = clients_per_site
        self.n_requests = n_requests
        self.duration_s = duration_s
        self.why = why

    def describe(self) -> dict[str, _t.Any]:
        return {
            "cluster": "docker (one per site)",
            "ops": "on (flow-stats collector every 1 s, REST app on every EGS)",
            "executor": "SerialExecutor for the timed and traced replays; "
            "ParallelCoordinator once per run (parity, sim.parallel metrics)",
            "trace": {
                "shape": "build_migration_replay (uniform per-site schedules, "
                "one migration per service after the window)",
                "n_sites": self.n_sites,
                "clients_per_site": self.clients_per_site,
                "n_requests": self.n_requests,
                "duration_s": self.duration_s,
            },
        }

    def build(self, seed: int) -> tuple[_t.Any, list]:
        """The plan, plus one in-process build of every partition: the
        work each executor does before its first round."""
        replay = build_migration_replay(
            FederationConfig(
                n_sites=self.n_sites,
                clients_per_site=self.clients_per_site,
                flow_stats_period_s=1.0,
            ),
            n_requests=self.n_requests,
            duration_s=self.duration_s,
            seed=seed,
        )
        topology = replay_topology(replay)
        nodes = tuple(
            dataclasses.replace(node, builder=_measured_site)
            if node.name != BACKBONE
            else node
            for node in topology.nodes
        )
        specs = dataclasses.replace(topology, nodes=nodes).partitions()
        for spec in specs:
            Partition(spec)
        return replay, specs

    def replay(self, prepared: tuple[_t.Any, list], serial: bool = False,
               around: _Around = contextlib.nullcontext) -> Outcome:
        """Run the plan under ParallelCoordinator, or SerialExecutor,
        with ``around()`` entered over exactly the timed span."""
        replay, specs = prepared
        executor = SerialExecutor(specs) if serial else ParallelCoordinator(specs)
        with around():
            t0 = time.perf_counter()
            run = executor.run(replay.horizon_s)
            replay_s = time.perf_counter() - t0
        return self._outcome(run, replay_s)

    def _outcome(self, run: _t.Any, replay_s: float) -> Outcome:
        sites = [run.results[f"site{s}"] for s in range(self.n_sites)]
        migration = hashlib.md5()
        for site in sites:
            migration.update(site["migration_md5"].encode("ascii"))
        pairs = sorted(p for site in sites for p in site["time_totals"])
        counters: dict[str, float] = {}
        for site in sites:
            for key, value in site["counters"].items():
                if key.endswith(("_ms", "table_peak")):
                    counters[key] = max(counters.get(key, 0.0), value)
                else:
                    counters[key] = counters.get(key, 0) + value
        return Outcome(
            issued=sum(s["issued"] for s in sites),
            ok=sum(s["completed"] for s in sites),
            failed=sum(s["failed"] for s in sites),
            latencies_ms=[v * 1000.0 for _, v in pairs],
            latency_md5=combined_fingerprint(run.results, self.n_sites),
            replay_s=replay_s,
            events=run.stats.total_events,
            migration_md5=migration.hexdigest(),
            counters=counters,
            stats=run.stats,
        )


def workloads(small: bool = False) -> dict[str, _t.Any]:
    """The benchmark's workloads; ``small=True`` gives reduced-size
    variants for the benchmark's own tests (same shapes, ~1 s each)."""
    if small:
        return {
            "replay-warm": _replay_warm(BigFlowsParams()),
            "deploy-churn": _deploy_churn(
                BigFlowsParams(n_services=10, n_requests=400, duration_s=120)
            ),
            "federation-sharded": _federation(n_requests=400, duration_s=10.0),
        }
    return {
        "replay-warm": _replay_warm(BigFlowsParams(n_requests=17_080)),
        "deploy-churn": _deploy_churn(
            BigFlowsParams(n_services=100, n_requests=10_000, duration_s=600)
        ),
        "federation-sharded": _federation(n_requests=10_000, duration_s=120.0),
    }


def _replay_warm(params: BigFlowsParams) -> TestbedWorkload:
    return TestbedWorkload(
        "replay-warm",
        cluster="docker",
        params=params,
        auto_scale_down=False,
        why="the per-packet hot path (OpenFlow table, hosts, links, route "
        "cache, kernel) does almost all the work; the control plane only 42 "
        "warm deploys",
    )


def _deploy_churn(params: BigFlowsParams) -> TestbedWorkload:
    return TestbedWorkload(
        "deploy-churn",
        cluster="k8s",
        params=params,
        auto_scale_down=True,
        why="the paper's on-demand path repeated: tail services idle, scale "
        "down and cold-start again, so core, cluster and k8s dominate and the "
        "flow table churns",
    )


def _federation(n_requests: int, duration_s: float) -> FederationWorkload:
    return FederationWorkload(
        "federation-sharded",
        n_sites=2,
        clients_per_site=4,
        n_requests=n_requests,
        duration_s=duration_s,
        why="the only workload on the sharded kernel, the federated control "
        "plane, live migration and the ops collector",
    )
