"""The behaviour contract of the federated site stack, pinned.

One builder (``repro.testbed.federation.build_site`` /
``build_backbone``) wires every site, whether the federation runs in
one environment or one partition per site.  A change to that wiring
must leave simulated time alone, so these tests rerun recorded rows and
compare fingerprints exactly:

* ``BENCH_FED.json``: the bigFlows replay on the one-env federation at
  1, 2 and 4 sites — latency md5 and event count;
* ``BENCH_PR8.json``: the full-testbed replay on the sharded kernel's
  serial executor at 1, 2, 4 and 8 sites — latency md5 and rounds;
* a small migration-heavy replay at 2 sites — combined latency and
  migration md5s, pinned below;
* a bigFlows replay on the Kubernetes cluster with idle scale-down, so
  Pull/Create/Scale Up run through the API server, controllers, kubelet
  and kube-proxy on every cold start — latency md5 and counts, pinned
  below.

The recorded files are read, never written.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from benchmarks.perf.harness import (
    run_federation_benchmark,
    run_testbed_benchmark,
)
from repro.services.catalog import NGINX
from repro.sim.parallel.testbed import (
    build_migration_replay,
    combined_fingerprint,
    run_replay,
)
from repro.testbed import C3Testbed, TestbedConfig
from repro.testbed.federation import FederationConfig
from repro.workload import BigFlowsParams, TraceDriver, generate_trace

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Request window of the recorded full-testbed rows (the
#: ``TESTBED_DURATION_S`` of ``tools/bench_throughput.py``).
TESTBED_DURATION_S = 3.0

#: ``build_migration_replay(FederationConfig(n_sites=2,
#: clients_per_site=2), n_requests=8, duration_s=2.5, seed=42)`` under
#: the serial executor: combined latency md5, md5 over the per-site
#: migration md5s, and migrations completed per site.
MIGRATION_REPLAY = (
    "47bdd79713b5debe733473afc011cb2d",
    "8e7533a0e0513e069c52f57e57d2797e",
    [1, 1],
)

#: 30 NGINX services created on the k8s cluster, then
#: ``generate_trace(BigFlowsParams(n_services=30, n_requests=1000,
#: duration_s=600), seed=42)`` with idle scale-down: md5 over
#: ``time_total``, events of the replay, deployments, idle scale-downs,
#: failed requests, and API server requests and watch events.
K8S_REPLAY = ("5c186e3b6852edac4f5a8c37210492b0", 53335, 75, 55, 0, 2124, 1616)


def _report(name: str) -> dict:
    return json.loads((ROOT / name).read_text())


def _row(report: dict, **match) -> dict:
    rows = [
        run
        for run in report["runs"]
        if all(run.get(key) == value for key, value in match.items())
    ]
    assert len(rows) == 1, f"expected one recorded row for {match}"
    return rows[0]


@pytest.mark.parametrize("n_sites", [1, 2, 4])
def test_federation_rows_reproduce(n_sites):
    report = _report("BENCH_FED.json")
    row = _row(report, n_sites=n_sites, scale=1)
    result = run_federation_benchmark(
        n_sites=n_sites, scale=1, seed=report["trace_seed"]
    )
    assert result.latency_md5 == row["latency_md5"]
    assert result.events == row["events"]


@pytest.mark.parametrize("n_sites", [1, 2, 4, 8])
def test_sharded_testbed_rows_reproduce(n_sites):
    report = _report("BENCH_PR8.json")
    row = _row(report, n_sites=n_sites, workload="testbed", mode="serial")
    result = run_testbed_benchmark(
        n_sites=n_sites,
        n_requests=row["n_requests"],
        duration_s=TESTBED_DURATION_S,
        parallel=False,
        seed=report["trace_seed"],
    )
    assert result.sim_s == row["sim_s"]  # same plan as recorded
    assert result.latency_md5 == row["latency_md5"]
    assert result.rounds == row["rounds"]


def test_migration_replay_fingerprints_pinned():
    replay = build_migration_replay(
        FederationConfig(n_sites=2, clients_per_site=2),
        n_requests=8,
        duration_s=2.5,
        seed=42,
    )
    results = run_replay(replay).results
    migration = hashlib.md5()
    for site in range(2):
        migration.update(results[f"site{site}"]["migration_md5"].encode("ascii"))
    assert (
        combined_fingerprint(results, 2),
        migration.hexdigest(),
        [results[f"site{site}"]["migrations_completed"] for site in range(2)],
    ) == MIGRATION_REPLAY


def test_k8s_deploy_churn_replay_pinned():
    tb = C3Testbed(TestbedConfig(cluster_types=("k8s",), auto_scale_down=True))
    services = [tb.register_template(NGINX) for _ in range(30)]
    for service in services:
        tb.prepare_created(tb.k8s_cluster, service)
    tb.settle(1.0)
    trace = generate_trace(
        BigFlowsParams(n_services=30, n_requests=1000, duration_s=600), seed=42
    )
    driver = TraceDriver(
        tb.env,
        tb.clients,
        services,
        requests={s.name: NGINX.request for s in services},
        recorder=tb.recorder,
    )
    events_before = tb.env.events_processed
    summary = driver.run(trace)
    digest = hashlib.md5()
    for sample in summary.samples:
        digest.update(f"{sample.time_total:.17g}\n".encode("ascii"))
    api = tb.kubernetes.api.stats
    assert (
        digest.hexdigest(),
        tb.env.events_processed - events_before,
        len(tb.recorder.series("deployments")),
        tb.controller.stats["scale_downs"],
        sum(1 for sample in summary.samples if not sample.ok),
        api["requests"],
        api["events"],
    ) == K8S_REPLAY
