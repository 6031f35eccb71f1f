"""The federated multi-site testbed (Extension D1).

Scales the single-EGS C³ setup out to *n* radio sites: every site has
its own gNB switch, Edge Gateway Server, Docker cluster, clients, and
— the point of the exercise — its own :class:`SiteController`.  Sites
meet at a backbone switch (which also fronts the cloud uplink) on the
data plane, and at a :class:`~repro.core.federation.SharedStateHub` on
the control plane:

.. code-block:: text

            clients ── gnb-site0 ──┐             ┌── gnb-site1 ── clients
                          │        │             │       │
                 site0-egs┘      backbone ─ cloud       └site1-egs
                                   │
            controller-site0 ═ shared state hub ═ controller-site1

The backbone runs a static forwarding app (no interception): per-host
routes plus a default route to the cloud.  All service interception
and redirection happens at the site switches, each owned exclusively
by its site controller.

:func:`build_site` and :func:`build_backbone` are the one place a site
stack and the backbone are wired.  :class:`FederatedTestbed` runs them
in one environment; the sharded kernel
(:mod:`repro.sim.parallel.testbed`) runs each in its own partition.
The two differ only in the callbacks they hand :func:`build_site`: how
the gNB's trunk port reaches the backbone (a real :class:`Link`, or a
portal half-link) and how the site's replica reaches the hub
(:meth:`SharedStateHub.connect`, or a remote-hub handle).
"""

from __future__ import annotations

import dataclasses
import typing as _t
from functools import partial

from repro.cluster import DockerCluster, EdgeCluster
from repro.containers import Containerd, DockerEngine
from repro.core import (
    Annotator,
    ControllerConfig,
    GlobalScheduler,
    LowLatencyScheduler,
    SwitchTopology,
)
from repro.core.controller import PRIORITY_DEFAULT, PRIORITY_INFRA
from repro.core.federation import SharedStateHub, SiteController, SiteReplica
from repro.core.migration import BandwidthLedger, MigrationManager, MigrationOutcome
from repro.core.service_registry import EdgeService, ServiceRegistry
from repro.metrics import MetricsRecorder
from repro.net import Host, Link
from repro.net.addressing import IPAllocator, IPv4Address, MACAllocator
from repro.net.cloud import CloudHost
from repro.net.link import GBPS
from repro.net.openflow import FlowMatch, OpenFlowSwitch, Output
from repro.ops import OPS_PORT, FlowStatsCollector, OpsApp, OpsReadModel
from repro.sdnfw import Datapath, SDNApp
from repro.services import DEFAULT_CALIBRATION, Calibration, ServiceTemplate
from repro.sim import Environment
from repro.testbed.c3 import (
    BaseTestbed,
    Registries,
    build_registries,
    client_conntrack,
)

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.device import NetworkInterface
    from repro.sim.parallel.model import EdgeWorkload
    from repro.sim.parallel.partitioner import TopologySpec
    from repro.sim.parallel.testbed import TestbedReplay

#: Name under which a site's shared-state link appears in
#: ``named_links`` (pair it with the site name to partition it).
SHARED_STATE = "shared-state"

#: Name under which a site's trunk (gNB <-> backbone) link appears in
#: ``named_links`` (pair it with the site name to partition it).
BACKBONE = "backbone"


# -- deterministic addressing (no objects cross the fork boundary) ---------

def egs_ip(site: int) -> IPv4Address:
    """Site ``site``'s EGS address: ``10.0.<site+1>.1``."""
    return IPv4Address(0x0A000000 + ((site + 1) << 8) + 1)


def client_ip(site: int, client: int) -> IPv4Address:
    """Client ``client`` at ``site``: ``10.0.<site+1>.<10+client>``."""
    return IPv4Address(0x0A000000 + ((site + 1) << 8) + 10 + client)


def cloud_ip() -> IPv4Address:
    return IPv4Address.parse("198.51.100.1")


@dataclasses.dataclass(frozen=True)
class FederationConfig:
    """Knobs of the federated testbed."""

    n_sites: int = 2
    clients_per_site: int = 2
    #: One-way site <-> shared-state latency; a write reaches remote
    #: replicas after two of these (site -> hub -> peers).
    propagation_delay_s: float = 0.025
    #: Added scheduler distance for serving from another site.
    remote_distance_penalty: int = 2
    registry: str = "public"
    client_link_latency_s: float = 200e-6
    client_link_bandwidth_bps: float = 1 * GBPS
    egs_link_latency_s: float = 50e-6
    egs_link_bandwidth_bps: float = 10 * GBPS
    #: Site gNB <-> backbone.
    trunk_latency_s: float = 0.002
    trunk_bandwidth_bps: float = 10 * GBPS
    cloud_link_latency_s: float = 0.015
    cloud_link_bandwidth_bps: float = 1 * GBPS
    control_channel_latency_s: float = 150e-6
    auto_scale_down: bool = False
    #: Share of each trunk's bandwidth the migration planner may
    #: commit to checkpoint transfers (the rest stays with data).
    migration_budget_fraction: float = 0.4
    #: Serve the operational REST API (:mod:`repro.ops`) on every
    #: site's EGS host at :data:`repro.ops.OPS_PORT`.
    ops_api: bool = True
    #: Poll each site's gNB switch counters every this many seconds
    #: with a :class:`~repro.ops.FlowStatsCollector`; the trunk-link
    #: utilization rows replicate through the shared-state hub
    #: (``None``: no collectors).
    flow_stats_period_s: float | None = None

    def __post_init__(self) -> None:
        if self.n_sites < 1:
            raise ValueError("need at least one site")
        if self.clients_per_site < 1:
            raise ValueError("need at least one client per site")
        if self.clients_per_site > 245:
            # client_ip(site, j) = 10.0.<site+1>.<10+j>: past .254 the
            # addresses run into the next site's EGS and clients.
            raise ValueError(
                "clients_per_site must be at most 245 (addresses "
                f"10.0.<site+1>.10-254), got {self.clients_per_site}"
            )
        if self.registry not in ("public", "private"):
            raise ValueError(f"unknown registry {self.registry!r}")
        if self.flow_stats_period_s is not None and self.flow_stats_period_s <= 0:
            raise ValueError("flow_stats_period_s must be positive")

    @property
    def data_lookahead_s(self) -> float:
        """Lookahead of the partitioned kernel's *data* cut channels.

        A packet entering the trunk at ``t`` cannot reach the far side
        before ``t + trunk_latency_s`` — the physical guarantee the
        conservative synchronizer runs on for backbone traffic.
        """
        return self.trunk_latency_s

    @property
    def control_lookahead_s(self) -> float:
        """Lookahead of the *control* (shared-state) cut channels.

        Replication rides the hub's one-way propagation delay, not the
        trunk: a state write submitted at ``t`` is delivered remotely
        no earlier than ``t + propagation_delay_s``.  With the default
        knobs this is 12.5x the trunk latency, so control channels
        grant far wider safe-time windows than data channels — the
        per-kind derivation the adaptive round engine exploits.
        """
        return self.propagation_delay_s

    @property
    def migration_budget_bps(self) -> int:
        """Trunk bandwidth the migration planner may commit."""
        return int(self.trunk_bandwidth_bps * self.migration_budget_fraction)

    def partition_plan(
        self,
        n_clients: int | None = None,
        n_requests: int = 100_000,
        duration_s: float = 60.0,
        seed: int = 42,
    ) -> tuple["EdgeWorkload", "TopologySpec"]:
        """Derive a partitioned-replay plan from this federation shape.

        Maps the testbed's latency knobs onto the synthetic replay
        workload of ``repro.sim.parallel.model`` and cuts the topology
        at the trunk links — one partition per site plus the backbone.
        Validates the cut eagerly, so a federation configured with a
        zero-latency trunk (no lookahead window) raises
        :class:`~repro.sim.parallel.PartitionError` here rather than
        deadlocking a run later.
        """
        from repro.sim.parallel import model as _parallel_model

        workload = _parallel_model.EdgeWorkload(
            n_sites=self.n_sites,
            n_clients=(
                n_clients
                if n_clients is not None
                else self.n_sites * self.clients_per_site
            ),
            n_requests=n_requests,
            duration_s=duration_s,
            client_latency_s=self.client_link_latency_s,
            egs_latency_s=self.egs_link_latency_s,
            trunk_latency_s=self.trunk_latency_s,
            cloud_latency_s=self.cloud_link_latency_s,
            seed=seed,
        )
        topology = _parallel_model.topology_spec(workload)
        topology.partitions()  # eager validation (e.g. zero-latency trunk)
        return workload, topology

    def testbed_replay(
        self,
        n_requests: int = 40,
        duration_s: float = 4.0,
        seed: int = 42,
        service_keys: tuple[str, ...] = ("asm", "nginx"),
    ) -> tuple["TestbedReplay", "TopologySpec"]:
        """Derive a *full-testbed* partitioned replay from this shape.

        Unlike :meth:`partition_plan` (a synthetic approximation), the
        replay builds the real stack — gNB switches, EGS hosts, Docker
        clusters, clients, and per-site :class:`SiteController`\\ s —
        inside each partition, with shared-state replication riding a
        dedicated control channel per site.  The cut is validated
        eagerly: a zero-latency trunk *or* zero propagation delay
        leaves the conservative synchronizer without lookahead and
        raises :class:`~repro.sim.parallel.PartitionError` here
        instead of deadlocking a run.
        """
        from repro.sim.parallel import testbed as _parallel_testbed

        replay = _parallel_testbed.build_replay(
            self,
            n_requests=n_requests,
            duration_s=duration_s,
            seed=seed,
            service_keys=service_keys,
        )
        topology = _parallel_testbed.replay_topology(replay)
        topology.partitions()  # eager validation of both channel kinds
        return replay, topology


class BackboneApp(SDNApp):
    """Static forwarding on the backbone switch: per-host routes plus
    a default route to the cloud.  No interception — transparency is a
    site-switch concern."""

    def __init__(self, env: Environment, topology: SwitchTopology) -> None:
        super().__init__(env, name="backbone")
        self.topology = topology

    def on_datapath_join(self, datapath: Datapath) -> None:
        cloud_port = self.topology.cloud_port(datapath.id)
        if cloud_port is not None:
            datapath.add_flow(
                FlowMatch(),
                [Output(cloud_port)],
                priority=PRIORITY_DEFAULT,
                cookie="default:cloud",
                notify_removal=False,
            )
        for ip, port in self.topology.hosts(datapath.id).items():
            self._route(datapath, ip, port)

    @staticmethod
    def _route(datapath: Datapath, ip: IPv4Address, port: int) -> None:
        datapath.add_flow(
            FlowMatch(ip_dst=ip),
            [Output(port)],
            priority=PRIORITY_INFRA,
            cookie=f"infra:{ip}",
            notify_removal=False,
        )

    def install_host_route(self, ip: IPv4Address) -> None:
        """(Re)install the backbone route for one host (handover)."""
        for datapath in self.datapaths.values():
            port = self.topology.port_for(datapath.id, ip)
            if port is None:
                continue
            datapath.delete_flows(cookie=f"infra:{ip}")
            self._route(datapath, ip, port)


@dataclasses.dataclass
class Backbone:
    """The backbone switch with its static app, the cloud behind it,
    and the shared-state hub."""

    switch: OpenFlowSwitch
    topology: SwitchTopology
    app: BackboneApp
    cloud: CloudHost
    hub: SharedStateHub
    #: Per site index: the backbone port and interface toward that
    #: site's trunk, left for the caller to attach.
    ports: list[tuple[int, "NetworkInterface"]]


def _site_hosts(config: FederationConfig, site: int) -> list[IPv4Address]:
    """Every home address at ``site``: its EGS, then its clients."""
    return [egs_ip(site)] + [
        client_ip(site, j) for j in range(config.clients_per_site)
    ]


def build_backbone(
    env: Environment, config: FederationConfig, macs: MACAllocator
) -> Backbone:
    """Build the backbone switch, its app, the cloud and the hub.

    Every host of a site is routed through that site's backbone port;
    the ports come back unattached in :attr:`Backbone.ports`.
    """
    switch = OpenFlowSwitch(env, "backbone", datapath_id=1)
    topology = SwitchTopology()
    app = BackboneApp(env, topology)
    cloud = CloudHost(env, "cloud", macs.allocate(), cloud_ip())
    cloud_port, cloud_iface = switch.add_port(macs.allocate())
    Link(
        env,
        cloud.iface,
        cloud_iface,
        config.cloud_link_bandwidth_bps,
        config.cloud_link_latency_s,
    )
    topology.set_cloud_port(1, cloud_port)
    hub = SharedStateHub(env, propagation_delay_s=config.propagation_delay_s)
    ports = []
    for site in range(config.n_sites):
        port_no, iface = switch.add_port(macs.allocate())
        for ip in _site_hosts(config, site):
            topology.register_host(1, ip, port_no)
        ports.append((port_no, iface))
    app.attach(switch, latency_s=config.control_channel_latency_s)
    return Backbone(switch, topology, app, cloud, hub, ports)


@dataclasses.dataclass
class Site:
    """Everything one radio site owns."""

    name: str
    index: int
    switch: OpenFlowSwitch
    egs: Host
    cluster: DockerCluster
    clients: list[Host]
    topology: SwitchTopology
    replica: SiteReplica
    controller: SiteController
    #: Port (and its interface) on the site switch toward the backbone.
    trunk_port: int
    trunk_iface: "NetworkInterface"
    manager: MigrationManager
    collector: FlowStatsCollector | None
    ops: OpsReadModel
    ops_app: OpsApp | None


def build_site(
    env: Environment,
    config: FederationConfig,
    index: int,
    *,
    registries: Registries,
    recorder: MetricsRecorder,
    ledger: BandwidthLedger,
    macs: MACAllocator,
    scheduler: GlobalScheduler,
    calibration: Calibration,
    attach_trunk: _t.Callable[["NetworkInterface"], object],
    connect_state: _t.Callable[[str], SiteReplica],
) -> Site:
    """Build site ``index``'s stack and attach its controller.

    The gNB switch, the EGS with containerd and its Docker cluster, the
    clients, the :class:`SiteController` (with the conntrack view), the
    :class:`MigrationManager`, the flow-stats collector and the ops
    surface.  Every other site's hosts are routed through the trunk.
    ``attach_trunk`` connects the gNB's trunk interface to the
    backbone; ``connect_state`` returns the site's replica of the
    shared state.  Registries, recorder and ledger belong to the
    caller, which may share them across sites.
    """
    name = f"site{index}"
    dpid = index + 2  # backbone owns dpid 1
    switch = OpenFlowSwitch(env, f"gnb-{name}", datapath_id=dpid)
    topology = SwitchTopology()
    trunk_port, trunk_iface = switch.add_port(macs.allocate())
    attach_trunk(trunk_iface)
    topology.set_cloud_port(dpid, trunk_port)

    def wire(host: Host, bandwidth_bps: float, latency_s: float) -> Host:
        port_no, iface = switch.add_port(macs.allocate())
        Link(env, host.iface, iface, bandwidth_bps, latency_s)
        topology.register_host(dpid, host.ip, port_no)
        return host

    egs = wire(
        Host(env, f"{name}-egs", macs.allocate(), egs_ip(index)),
        config.egs_link_bandwidth_bps,
        config.egs_link_latency_s,
    )
    engine = DockerEngine(env, Containerd(env, egs))
    cluster = DockerCluster(
        env, f"{name}-docker", egs, engine, registries.active_registry, distance=0
    )
    clients = [
        wire(
            Host(env, f"{name}-rpi{j:02d}", macs.allocate(), client_ip(index, j)),
            config.client_link_bandwidth_bps,
            config.client_link_latency_s,
        )
        for j in range(config.clients_per_site)
    ]
    for other in range(config.n_sites):
        if other != index:
            for ip in _site_hosts(config, other):
                topology.register_host(dpid, ip, trunk_port)

    replica = connect_state(name)
    controller = SiteController(
        env,
        ServiceRegistry(
            Annotator(registries.images, registries.behaviors), state=replica
        ),
        [cluster],
        scheduler,
        topology,
        replica,
        config=dataclasses.replace(
            ControllerConfig.from_calibration(calibration),
            auto_scale_down=config.auto_scale_down,
        ),
        calibration=calibration,
        recorder=recorder,
        remote_distance_penalty=config.remote_distance_penalty,
    )
    controller.attach(switch, latency_s=config.control_channel_latency_s)
    controller.conntrack = client_conntrack(clients)
    manager = MigrationManager(
        env,
        name,
        controller,
        cluster,
        egs,
        {f"site{i}": egs_ip(i) for i in range(config.n_sites)},
        ledger,
    )

    # Operational surface.  Listeners and ticks are created here, so a
    # partition builds them after the fork (pickled hosts drop them).
    collector = None
    if config.flow_stats_period_s is not None:
        collector = FlowStatsCollector(
            env,
            name,
            switch,
            {f"trunk:{name}": trunk_iface.endpoint.link},
            state=replica,
            period_s=config.flow_stats_period_s,
            recorder=recorder,
        ).start()
    ops = OpsReadModel(
        env,
        controller,
        site=name,
        switches=(switch,),
        manager=manager,
        collector=collector,
    )
    ops_app = None
    if config.ops_api:
        ops_app = OpsApp(ops)
        egs.open_port(OPS_PORT, ops_app)
    return Site(
        name=name,
        index=index,
        switch=switch,
        egs=egs,
        cluster=cluster,
        clients=clients,
        topology=topology,
        replica=replica,
        controller=controller,
        trunk_port=trunk_port,
        trunk_iface=trunk_iface,
        manager=manager,
        collector=collector,
        ops=ops,
        ops_app=ops_app,
    )


class FederatedTestbed(BaseTestbed):
    """*n* sites, *n* controllers, one shared state, one backbone — the
    builders' sites in one environment, driven from outside."""

    def __init__(
        self,
        config: FederationConfig | None = None,
        scheduler_factory: _t.Callable[[], GlobalScheduler] | None = None,
        calibration: Calibration = DEFAULT_CALIBRATION,
    ) -> None:
        self.config = config = config or FederationConfig()
        self.calibration = calibration
        self.env = env = Environment()
        self.recorder = MetricsRecorder()
        self._macs = MACAllocator()
        self._service_ips = IPAllocator("203.0.113.0")
        make_scheduler = scheduler_factory or LowLatencyScheduler

        # Every site pulls from the same registries and plans against
        # one ledger, so concurrent inbound migrations at different
        # sites cannot jointly oversubscribe a source trunk.
        registries = build_registries(env, calibration, config.registry)
        (
            self.public_registry,
            self.private_registry,
            self.active_registry,
            self.images,
            self.behaviors,
        ) = registries
        self.ledger = BandwidthLedger(env, config.migration_budget_bps)
        self.backbone = build_backbone(env, config, self._macs)
        self.cloud = self.backbone.cloud

        self.sites: list[Site] = []
        #: Logical links the fault injector can partition by name pair,
        #: e.g. ``("site0", "shared-state")``.
        self.named_links: dict[tuple[str, str], _t.Any] = {}
        for index, (_, backbone_iface) in enumerate(self.backbone.ports):
            site = build_site(
                env,
                config,
                index,
                registries=registries,
                recorder=self.recorder,
                ledger=self.ledger,
                macs=self._macs,
                scheduler=make_scheduler(),
                calibration=calibration,
                attach_trunk=partial(self._trunk, backbone_iface),
                connect_state=self.backbone.hub.connect,
            )
            if site.ops_app is not None:
                site.ops_app.register = partial(
                    self._register_template_key, site.controller
                )
            self.named_links[(site.name, BACKBONE)] = site.trunk_iface.endpoint.link
            self.named_links[(site.name, SHARED_STATE)] = site.replica.link
            self.sites.append(site)
        self.settle(0.1)

    def _trunk(
        self, backbone_iface: "NetworkInterface", trunk_iface: "NetworkInterface"
    ) -> Link:
        return Link(
            self.env,
            trunk_iface,
            backbone_iface,
            self.config.trunk_bandwidth_bps,
            self.config.trunk_latency_s,
        )

    # -- views the fault injector and tools resolve targets on ---------------

    @property
    def switches(self) -> dict[int, OpenFlowSwitch]:
        switches = {1: self.backbone.switch}
        switches.update((s.switch.datapath_id, s.switch) for s in self.sites)
        return switches

    @property
    def clusters(self) -> list[EdgeCluster]:
        return [site.cluster for site in self.sites]

    @property
    def clients(self) -> list[Host]:
        return [client for site in self.sites for client in site.clients]

    @property
    def controllers(self) -> list[SiteController]:
        return [site.controller for site in self.sites]

    @property
    def controller(self) -> SiteController:
        """The first site's controller (single-controller interface for
        tools that expect one, e.g. parts of the fault injector)."""
        return self.sites[0].controller

    def settle_replication(self, margin_s: float = 0.01) -> None:
        """Advance past one full site -> hub -> peers propagation."""
        self.settle(2 * self.config.propagation_delay_s + margin_s)

    def site_of(self, client: Host) -> Site:
        for site in self.sites:
            if client in site.clients:
                return site
        raise ValueError(f"{client.name!r} belongs to no site")

    # -- service management ------------------------------------------------

    def register_template(
        self,
        template: ServiceTemplate,
        site: Site | None = None,
        cloud_ip: IPv4Address | None = None,
        port: int = 80,
        wait_replication: bool = True,
    ) -> EdgeService:
        """Register one catalog service at ``site`` (default: site0)
        and serve it from the cloud.  Registration replicates to every
        other site, which installs its intercepts when the write lands;
        by default this blocks until the propagation is done."""
        at = site or self.sites[0]
        service = self._register_catalog(at.controller, template, cloud_ip, port)
        if wait_replication:
            self.settle_replication()
        else:
            self.settle(0.005)
        return service

    # -- client mobility ---------------------------------------------------

    def move_client(self, client: Host, target: Site) -> None:
        """Hand a client over to another site's gNB (same IP).

        The origin site clears the client's redirect flows and
        memorized resolutions, every topology repoints at the new
        location, and the backbone route follows — the next request is
        re-resolved by the *target* site's controller.
        """
        origin = self.site_of(client)
        if origin is target:
            return
        old_endpoint = client.iface.endpoint
        if old_endpoint is not None:
            old_endpoint.link.down = True
            client.iface.endpoint = None
        origin.clients.remove(client)
        port_no, iface = target.switch.add_port(self._macs.allocate())
        Link(
            self.env,
            client.iface,
            iface,
            self.config.client_link_bandwidth_bps,
            self.config.client_link_latency_s,
        )
        target.clients.append(client)
        # Repoint every view of the client's location.
        target.topology.register_host(
            target.switch.datapath_id, client.ip, port_no
        )
        backbone_port, _ = self.backbone.ports[target.index]
        self.backbone.topology.register_host(1, client.ip, backbone_port)
        for site in self.sites:
            if site is not target:
                site.topology.register_host(
                    site.switch.datapath_id, client.ip, site.trunk_port
                )
        # Origin tears down stale flows + memory; target installs
        # routes and learns the new attachment, so subsequent proactive
        # re-dispatches (migration healing) can install eagerly there.
        origin.controller.update_client_location(client.ip)
        target.controller.update_client_location(
            client.ip, target.switch.datapath_id, port_no
        )
        self.backbone.app.install_host_route(client.ip)
        self.settle(0.05)

    # -- live migration ----------------------------------------------------

    def migrate(
        self,
        service: EdgeService,
        from_site: Site,
        to_site: Site,
        mode: str | None = None,
    ) -> MigrationOutcome:
        """Drive one migration to completion from outside the
        simulation and return its outcome."""
        done = to_site.manager.request_migration(
            service.name, from_site.name, mode=mode
        )
        outcome: MigrationOutcome = self.env.run(until=done)
        return outcome
