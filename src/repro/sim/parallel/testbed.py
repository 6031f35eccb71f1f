"""The *real* federated testbed sharded onto the parallel kernel.

Where ``repro.sim.parallel.model`` replays a synthetic approximation of
the federation, this module runs each site's **full stack** in its own
partition and the backbone in one more.  Both are built by the same
:func:`~repro.testbed.federation.build_site` and
:func:`~repro.testbed.federation.build_backbone` the monolithic
:class:`~repro.testbed.federation.FederatedTestbed` runs; a partition
passes them its two seams:

* the trunk :class:`~repro.net.link.Link` between a site switch and
  the backbone becomes a pair of :class:`PortalEndpoint` half-links,
  one per partition, whose serialization timeline mirrors
  :class:`~repro.net.link.LinkEndpoint` float-for-float and whose
  propagation leg rides the cut-edge channel (lookahead = trunk
  latency);
* shared-state replication rides a second, ``control``-kind channel
  per site: the site's :class:`~repro.core.federation.SiteReplica`
  talks to a :class:`~repro.core.federation.RemoteHubHandle`, the hub
  fans out through :meth:`SharedStateHub.attach_remote` sends — each
  leg paying exactly the ``propagation_delay_s`` the in-process hub
  charges (lookahead = propagation delay).

Build-in-worker: partitions are constructed *inside* the forked worker
from a picklable :class:`TestbedReplay` (config + service schedule +
request schedule — plain data, no env-bound objects), the same idiom
as the experiment engine's fork pool.  Because the serial executor and
the parallel coordinator drive the identical partition builds through
the identical round algorithm, latency traces are byte-identical by
construction — gated in ``tests/test_parallel_testbed.py``.

Determinism notes:

* request/service schedules are generated up front in
  :func:`build_replay` from integer-seeded per-site RNGs — no draws
  happen during the run, so completion interleaving cannot perturb
  the workload;
* host connection ids come from disjoint per-partition ranges (the
  module counter is re-based per partition index), so two sites'
  clients can never collide at a shared server's ``conn_id`` demux —
  in serial and parallel execution alike;
* route-cache recordings are aborted at the portal (a cross-partition
  traversal is not replayable, and a recording holds env-bound hop
  objects that must never be pickled), so cross-site flows take the
  slow path under *both* executors — identically.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import random
import typing as _t
from collections import deque
from functools import partial
from heapq import heappush

import repro.net.host as _host_mod
from repro.core import LowLatencyScheduler
from repro.core.federation import RemoteHubHandle, SiteReplica
from repro.core.federation.state import ReplicaLink
from repro.core.migration import BandwidthLedger
from repro.metrics import MetricsRecorder
from repro.net.addressing import IPv4Address, MACAllocator
from repro.net.packet import HEADER_BYTES
from repro.services import DEFAULT_CALIBRATION, build_catalog
from repro.services.catalog import template_by_key
from repro.sim.events import NORMAL
from repro.sim.parallel.model import BACKBONE
from repro.sim.parallel.partition import Partition, PartitionSpec, Portal
from repro.sim.parallel.partitioner import (
    CutLink,
    NodeSpec,
    TopologySpec,
    channel_id,
)
from repro.testbed.c3 import build_registries, open_cloud_app
from repro.testbed.federation import build_backbone, build_site

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.device import NetworkInterface
    from repro.net.packet import Packet
    from repro.sim import Environment
    from repro.testbed.federation import FederationConfig

__all__ = [
    "MigrationSpec",
    "PortalEndpoint",
    "ServiceSpec",
    "TestbedReplay",
    "build_migration_replay",
    "build_replay",
    "build_replay_specs",
    "replay_topology",
    "run_replay",
]

#: Conn-id range width per partition: disjoint blocks far above any
#: realistic connection count, so ids never collide across sites.
_CONN_ID_STRIDE = 1 << 40


def service_ip(index: int) -> IPv4Address:
    """Service ``index``'s perceived-cloud address: ``203.0.113.<i+1>``."""
    return IPv4Address(0xCB007100 + index + 1)


# -- the picklable build plan ----------------------------------------------

@dataclasses.dataclass(frozen=True)
class ServiceSpec:
    """One service in the replay: which template, where, and when."""

    key: str
    #: Index into the replay's service list (fixes the service IP).
    index: int
    #: Site whose controller registers the service.
    origin_site: int
    register_at_s: float


@dataclasses.dataclass(frozen=True)
class MigrationSpec:
    """One scheduled live migration in the replay.

    The *destination* site's manager drives it (the pipeline is
    destination-initiated), so the spec is scheduled in the
    ``to_site`` partition; its checkpoint traffic crosses the cut
    trunks as ordinary packets.
    """

    at_s: float
    service_index: int
    from_site: int
    to_site: int
    #: "precopy" / "stopcopy" / None (per-template default).
    mode: str | None = None


@dataclasses.dataclass(frozen=True)
class TestbedReplay:
    """Picklable plan for one full-testbed partitioned run.

    Everything a forked worker needs to build its partition: the
    federation shape, the service registration schedule, and every
    site's request schedule — plain data derived once (deterministic)
    in :func:`build_replay`.
    """

    config: "FederationConfig"
    services: tuple[ServiceSpec, ...]
    #: Per site: tuple of (issue time, client index, service index,
    #: request id) in issue order.
    requests_by_site: tuple[
        tuple[tuple[float, int, int, int], ...], ...
    ]
    horizon_s: float
    seed: int
    request_timeout_s: float = 60.0
    #: Optional per-site fault schedules (``FaultPlan`` instances are
    #: plain data, so they cross the fork boundary with the plan),
    #: aligned with site index; empty tuple = fault-free.  Faults must
    #: target site-local components — the cut trunks and control
    #: channels have no Injector-visible link objects.  Serial and
    #: parallel execution of a faulted replay stay byte-identical
    #: (both build the same partitions), but faulted fingerprints are
    #: never comparable to fault-free ones.
    faults_by_site: tuple[_t.Any, ...] = ()
    #: Scheduled live migrations (plain data; each is armed in its
    #: destination partition).  Every site builds its own private
    #: :class:`~repro.core.migration.BandwidthLedger`; the serial
    #: executor of a partitioned replay builds the identical set, so
    #: admission decisions — and hence fingerprints — match by
    #: construction.
    migrations: tuple[MigrationSpec, ...] = ()

    @property
    def n_sites(self) -> int:
        return self.config.n_sites


def build_replay(
    config: "FederationConfig",
    n_requests: int = 40,
    duration_s: float = 4.0,
    seed: int = 42,
    service_keys: tuple[str, ...] = ("asm", "nginx"),
    request_start_s: float = 2.0,
) -> TestbedReplay:
    """Derive the deterministic replay plan for ``config``.

    Services register early (site0 first, the last site second when
    the federation has one) so registration + replication + intercept
    installation settle before the request window opens at
    ``request_start_s``.
    """
    services = []
    for i, key in enumerate(service_keys):
        origin = 0 if i % 2 == 0 else config.n_sites - 1
        services.append(
            ServiceSpec(
                key=key,
                index=i,
                origin_site=origin,
                register_at_s=0.2 + 0.15 * i,
            )
        )
    per_site: list[tuple[tuple[float, int, int, int], ...]] = []
    base, rem = divmod(n_requests, config.n_sites)
    for site in range(config.n_sites):
        # Integer-only seeding, one stream per site: the schedule is
        # identical no matter which process generates or replays it.
        rng = random.Random(seed * 1_000_003 + site + 1)
        count = base + (1 if site < rem else 0)
        issues = sorted(
            request_start_s + rng.random() * duration_s for _ in range(count)
        )
        requests = tuple(
            (
                at,
                rng.randrange(config.clients_per_site),
                rng.randrange(len(services)),
                site * 1_000_000 + i + 1,
            )
            for i, at in enumerate(issues)
        )
        per_site.append(requests)
    return TestbedReplay(
        config=config,
        services=tuple(services),
        requests_by_site=tuple(per_site),
        # Tail long enough for on-demand pulls (nginx over the public
        # registry is ~5.5 s) plus the response drain.
        horizon_s=request_start_s + duration_s + 30.0,
        seed=seed,
    )


def build_migration_replay(
    config: "FederationConfig",
    n_requests: int = 40,
    duration_s: float = 4.0,
    seed: int = 42,
    service_keys: tuple[str, ...] = ("asm", "nginx"),
) -> TestbedReplay:
    """A migration-heavy variant of :func:`build_replay`.

    After the request window closes, every service is migrated from
    its origin site to the next site over — alternating pre-copy and
    stop-and-copy — so a replay exercises checkpoint transfer over the
    cut trunks, the make-before-break flip, source release, and
    replicated withdrawal, under both executors.
    """
    replay = build_replay(
        config,
        n_requests=n_requests,
        duration_s=duration_s,
        seed=seed,
        service_keys=service_keys,
    )
    start = 2.0 + duration_s + 1.0  # past the request window
    migrations = tuple(
        MigrationSpec(
            at_s=start + 0.5 * i,
            service_index=spec.index,
            from_site=spec.origin_site,
            to_site=(spec.origin_site + 1) % config.n_sites,
            mode="precopy" if i % 2 == 0 else "stopcopy",
        )
        for i, spec in enumerate(replay.services)
        if config.n_sites > 1
    )
    return dataclasses.replace(replay, migrations=migrations)


# -- the half-link: a LinkEndpoint whose far side is another partition ------

class _PortalLinkStub:
    """Stands in for :class:`~repro.net.link.Link` on a portal endpoint.

    The route cache snapshots ``endpoint.link.epoch`` when a recorded
    hop egresses here; the epoch never moves because a portal's
    parameters never change mid-run (recordings through it are aborted
    at serialization end anyway).
    """

    __slots__ = ("epoch", "down", "bandwidth_bps")

    def __init__(self) -> None:
        self.epoch = 0
        self.down = False
        #: Stamped by :class:`PortalEndpoint` so the flow-stats
        #: collector's utilization math sees the same trunk bandwidth
        #: as the monolithic testbed's real ``Link``.
        self.bandwidth_bps = 0.0


class PortalEndpoint:
    """One side of a cut trunk link, transmitting into a portal.

    Mirrors :class:`~repro.net.link.LinkEndpoint`'s FIFO transmitter
    exactly — same busy/deque discipline, same
    ``(HEADER_BYTES + payload) * 8 / bandwidth`` serialization float,
    same end-of-serialization scheduling — but the propagation leg is
    a ``portal.send`` with ``arrival_ts = now + latency`` instead of a
    local delivery callback, so the packet lands on the peer
    partition's heap at the exact instant ``LinkEndpoint._deliver``
    would have fired.  Route-cache state is stripped before the send:
    recordings hold env-bound hops (unpicklable, and a cross-partition
    traversal is not replayable anyway), so cross-site flows stay on
    the slow path under both executors.
    """

    __slots__ = (
        "portal",
        "iface",
        "peer",
        "link",
        "_pending",
        "_busy",
        "_env",
        "_bw",
        "_lat",
        "_serialized_cb",
    )

    def __init__(
        self,
        portal: Portal,
        iface: "NetworkInterface",
        bandwidth_bps: float,
        latency_s: float,
    ) -> None:
        if latency_s < portal.lookahead_s:
            raise ValueError(
                f"portal endpoint latency {latency_s!r}s undercuts channel "
                f"{portal.channel_id!r} lookahead {portal.lookahead_s!r}s"
            )
        self.portal = portal
        self.iface = iface
        #: No peer endpoint in this partition: inbound ``_record_hop``
        #: sees ``in_ep.peer is None`` and aborts recording, exactly
        #: the packet-out-injection fallback of the monolithic path.
        self.peer = None
        self.link = _PortalLinkStub()
        self.link.bandwidth_bps = float(bandwidth_bps)
        self._pending: deque["Packet"] = deque()
        self._busy = False
        self._env = iface.device.env
        self._bw = float(bandwidth_bps)
        self._lat = float(latency_s)
        self._serialized_cb = self._serialized
        iface.endpoint = self

    def _serialize(self, packet: "Packet") -> None:
        env = self._env
        heappush(
            env._queue,
            (
                env._now
                + (HEADER_BYTES + packet.tcp.payload_bytes) * 8 / self._bw,
                NORMAL,
                next(env._seq),
                self._serialized_cb,
                (packet,),
            ),
        )

    def transmit(self, packet: "Packet") -> None:
        if self._busy:
            self._pending.append(packet)
        else:
            self._busy = True
            self._serialize(packet)

    def _serialized(self, packet: "Packet") -> None:
        env = self._env
        hop = packet._fp_next
        if hop is not None:
            # A fused fast hop can never target a portal (recordings
            # through it never finalize), but a stale pointer from an
            # upstream invalidation may survive: kill it before pickling.
            hop.route.invalidate()
            packet._fp_next = None
        if packet._fp_rec is not None:
            packet._fp_rec = None  # cross-partition traversals don't replay
        self.portal.send(packet, arrival_ts=env._now + self._lat)
        if self._pending:
            self._serialize(self._pending.popleft())
        else:
            self._busy = False


# -- partition models -------------------------------------------------------

def _rebase_conn_ids(partition_index: int) -> None:
    """Give this partition's hosts a disjoint conn-id range.

    ``Host`` demultiplexes server-side connections by ``conn_id``
    alone; forked workers inherit the same module counter, so without
    re-basing, clients at two sites could collide at a shared server.
    Under the serial executor the last assignment wins and every
    partition draws from one shared counter — globally unique either
    way (the values differ between executors, but conn ids never enter
    flow matches, timings, or latency digests).
    """
    _host_mod._conn_ids = itertools.count(partition_index * _CONN_ID_STRIDE + 1)


def _remote_replica(
    env: "Environment", send: _t.Callable[[_t.Any], None], name: str
) -> SiteReplica:
    """A site replica whose hub lives in the backbone partition: writes
    leave through ``send`` (the control channel's portal)."""
    handle = RemoteHubHandle(send)
    replica = SiteReplica(env, name, ReplicaLink(env, handle, name))
    handle.link = replica.link
    return replica


class SitePartitionModel:
    """One site's full stack, built inside its own partition."""

    def __init__(self, replay: TestbedReplay, site: int) -> None:
        self.replay = replay
        self.site = site
        self.name = f"site{site}"
        self.issued = 0
        self.completed = 0
        self.failed = 0
        self._digest = hashlib.md5()

    def setup(self, partition: Partition) -> None:
        self.partition = partition
        env = self.env = partition.env
        config = self.replay.config
        _rebase_conn_ids(partition.spec.index)

        # The partition's own registries (pull traffic is site-local;
        # the profiles make it deterministic), recorder and ledger; the
        # serial executor builds the same per-site set, so planner
        # admission is byte-identical.
        self.recorder = MetricsRecorder()
        self.registries = build_registries(
            env, DEFAULT_CALIBRATION, config.registry
        )
        trunk = partition.portals[channel_id(self.name, BACKBONE)]
        control = partition.portals[channel_id(self.name, BACKBONE, "control")]
        self.stack = stack = build_site(
            env,
            config,
            self.site,
            registries=self.registries,
            recorder=self.recorder,
            ledger=BandwidthLedger(env, config.migration_budget_bps),
            macs=MACAllocator(),
            scheduler=LowLatencyScheduler(),
            calibration=DEFAULT_CALIBRATION,
            attach_trunk=lambda iface: PortalEndpoint(
                trunk, iface, config.trunk_bandwidth_bps, config.trunk_latency_s
            ),
            connect_state=partial(_remote_replica, env, control.send),
        )
        self.switch, self.controller = stack.switch, stack.controller
        partition.on_message(
            channel_id(BACKBONE, self.name, "control"),
            stack.replica.apply_remote,
        )
        partition.on_message(
            channel_id(BACKBONE, self.name), self._packet_from_backbone
        )

        for mig in self.replay.migrations:
            if mig.to_site == self.site:
                env.call_at(mig.at_s, self._start_migration, mig)
        for spec in self.replay.services:
            if spec.origin_site == self.site:
                env.call_at(spec.register_at_s, self._register_service, spec)
        for at, client_idx, service_idx, req_id in (
            self.replay.requests_by_site[self.site]
        ):
            env.call_at(at, self._start_request, client_idx, service_idx, req_id)
        # The fault plan crossed the fork boundary as plain data; arm
        # it against this site's components only.
        faults = self.replay.faults_by_site
        if faults and faults[self.site] is not None:
            from repro.faults import Injector

            self.injector = Injector(
                _SiteFaultView(self), faults[self.site]
            ).arm()

    def _packet_from_backbone(self, packet: "Packet") -> None:
        self.switch.receive(packet, self.stack.trunk_iface)

    # -- workload ---------------------------------------------------------

    def _register_service(self, spec: ServiceSpec) -> None:
        template = template_by_key(spec.key)
        self.controller.register_service(
            template.definition_yaml,
            service_ip(spec.index),
            80,
            template_key=template.key,
        )

    def _start_request(
        self, client_idx: int, service_idx: int, req_id: int
    ) -> None:
        self.issued += 1
        self.env.process(self._run_request(client_idx, service_idx, req_id))

    def _start_migration(self, spec: MigrationSpec) -> None:
        service = self.controller.registry.lookup(
            service_ip(spec.service_index), 80
        )
        if service is None:
            # Registration never replicated in (e.g. faulted replay):
            # identical no-op under both executors.
            return
        self.stack.manager.request_migration(
            service.name, f"site{spec.from_site}", mode=spec.mode
        )

    def _run_request(self, client_idx: int, service_idx: int, req_id: int):
        template = template_by_key(self.replay.services[service_idx].key)
        try:
            result = yield from self.stack.clients[client_idx].http_request(
                service_ip(service_idx),
                80,
                template.request,
                timeout=self.replay.request_timeout_s,
            )
        except Exception as exc:
            self.failed += 1
            self._digest.update(
                f"{req_id}:!{type(exc).__name__}\n".encode("ascii")
            )
            return
        self.completed += 1
        self._digest.update(
            f"{req_id}:{result.time_total:.17g}\n".encode("ascii")
        )

    # -- results ----------------------------------------------------------

    def result(self) -> dict[str, _t.Any]:
        outcomes = self.stack.manager.outcomes
        migration_digest = hashlib.md5()
        for o in outcomes:
            migration_digest.update(
                f"{o.service_name}:{o.from_site}->{o.to_site}:{o.mode}:"
                f"{o.rounds}:{o.bytes_moved}:{int(o.completed)}:"
                f"{o.failed_phase}:{o.downtime_s:.17g}\n".encode("ascii")
            )
        return {
            "site": self.site,
            "issued": self.issued,
            "completed": self.completed,
            "failed": self.failed,
            "latency_md5": self._digest.hexdigest(),
            "migration_md5": migration_digest.hexdigest(),
            "migrations_completed": sum(1 for o in outcomes if o.completed),
            "migrations_aborted": sum(1 for o in outcomes if not o.completed),
            "peak_flow_table": int(self.switch.table.peak_size),
            "switch_stats": dict(self.switch.stats),
        }


class _SiteFaultView:
    """Duck-typed testbed view the fault Injector resolves targets on.

    Exposes exactly one site's components (hosts, switch, cluster,
    registries, controller), so a site's fault plan cannot reach
    across the partition boundary.
    """

    def __init__(self, model: SitePartitionModel) -> None:
        stack = model.stack
        self.env = model.env
        self.egs = stack.egs
        self.clients = stack.clients
        self.clusters = [stack.cluster]
        self.switches = {stack.switch.datapath_id: stack.switch}
        self.public_registry = model.registries.public_registry
        self.private_registry = model.registries.private_registry
        self.active_registry = model.registries.active_registry
        self.controllers = [stack.controller]
        self.recorder = model.recorder


class BackbonePartitionModel:
    """The backbone island: switch, static app, cloud, shared-state hub."""

    def __init__(self, replay: TestbedReplay) -> None:
        self.replay = replay

    def setup(self, partition: Partition) -> None:
        self.partition = partition
        env = self.env = partition.env
        config = self.replay.config
        _rebase_conn_ids(partition.spec.index)

        backbone = build_backbone(env, config, MACAllocator())
        self.switch, self.hub = backbone.switch, backbone.hub
        for site, (_, iface) in enumerate(backbone.ports):
            name = f"site{site}"
            PortalEndpoint(
                partition.portals[channel_id(BACKBONE, name)],
                iface,
                config.trunk_bandwidth_bps,
                config.trunk_latency_s,
            )
            partition.on_message(
                channel_id(name, BACKBONE),
                partial(self._packet_from_site, iface),
            )
            # Control plane: site writes arrive here having already
            # paid the site -> hub delay (channel lookahead); fan-out
            # to other remote sites pays hub -> site over their portals.
            self.hub.attach_remote(
                name,
                partition.portals[channel_id(BACKBONE, name, "control")].send,
            )
            partition.on_message(
                channel_id(name, BACKBONE, "control"),
                partial(self.hub.deliver, name),
            )

        # Cloud side of every service is up from t=0 (the monolithic
        # testbed opens it at registration; opening early only means
        # the cloud answers requests that could not yet arrive).
        _images, behaviors = build_catalog(DEFAULT_CALIBRATION)
        for spec in self.replay.services:
            open_cloud_app(
                env,
                backbone.cloud,
                behaviors,
                template_by_key(spec.key),
                service_ip(spec.index),
                80,
            )

    def _packet_from_site(
        self, iface: "NetworkInterface", packet: "Packet"
    ) -> None:
        self.switch.receive(packet, iface)

    def result(self) -> dict[str, _t.Any]:
        return {
            "switch_stats": dict(self.switch.stats),
            "hub_entries": len(self.hub._values),
        }


# -- topology + runners -----------------------------------------------------

def replay_topology(replay: TestbedReplay) -> TopologySpec:
    """Cut the full testbed at the trunks *and* the control channels.

    Each kind derives its lookahead from its own physical latency
    (``FederationConfig.data_lookahead_s`` /
    ``control_lookahead_s``): data channels ride the trunk, control
    channels ride the shared-state hub's propagation delay — usually
    an order of magnitude wider, so replication traffic never forces
    trunk-sized synchronization rounds.  The adaptive round engine
    piggybacks both kinds' bounds on the same round batch, so the
    kind-suffixed channel pairs cost no extra null messages.
    """
    config = replay.config
    nodes = [NodeSpec(BACKBONE, BackbonePartitionModel, {"replay": replay})]
    links = []
    for site in range(config.n_sites):
        name = f"site{site}"
        nodes.append(
            NodeSpec(
                name, SitePartitionModel, {"replay": replay, "site": site}
            )
        )
        links.append(
            CutLink(name, BACKBONE, config.data_lookahead_s, kind="data")
        )
        links.append(
            CutLink(
                name, BACKBONE, config.control_lookahead_s, kind="control"
            )
        )
    return TopologySpec(nodes=tuple(nodes), links=tuple(links))


def build_replay_specs(replay: TestbedReplay) -> list[PartitionSpec]:
    return replay_topology(replay).partitions()


def run_replay(
    replay: TestbedReplay,
    parallel: bool = False,
    profile_dir: _t.Any = None,
):
    """Run the full-testbed replay; returns a ``ParallelRun``.

    ``profile_dir`` (a directory path) enables per-worker ``cProfile``
    dumps — merge them with
    :func:`repro.sim.parallel.coordinator.merged_profile_stats`.
    """
    from repro.sim.parallel.coordinator import (
        ParallelCoordinator,
        SerialExecutor,
    )

    specs = build_replay_specs(replay)
    executor = (
        ParallelCoordinator(specs, profile_dir=profile_dir)
        if parallel
        else SerialExecutor(specs, profile_dir=profile_dir)
    )
    return executor.run(until=replay.horizon_s)


def combined_fingerprint(results: dict[str, _t.Any], n_sites: int) -> str:
    """MD5 over the per-site latency digests in site order."""
    digest = hashlib.md5()
    for site in range(n_sites):
        digest.update(results[f"site{site}"]["latency_md5"].encode("ascii"))
    return digest.hexdigest()


def totals(results: dict[str, _t.Any], n_sites: int) -> dict[str, int]:
    """Aggregate request counters across sites."""
    issued = completed = failed = 0
    for site in range(n_sites):
        issued += results[f"site{site}"]["issued"]
        completed += results[f"site{site}"]["completed"]
        failed += results[f"site{site}"]["failed"]
    return {"issued": issued, "completed": completed, "failed": failed}
