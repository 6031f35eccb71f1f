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
  migration md5s, pinned below.

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
from repro.sim.parallel.testbed import (
    build_migration_replay,
    combined_fingerprint,
    run_replay,
)
from repro.testbed.federation import FederationConfig

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
