//! Wrappers around the IPOP host agent and its application, plus the
//! per-layer counters of a `NetworkSim` world.
//!
//! [`TimedAgent`] implements `HostAgent` around an `IpopHostAgent` built with
//! `IpopHostAgent::new`, and [`TimedApp`] implements `VirtualApp` around the
//! application it runs. Both only enter a [`Layer`] scope and count calls, so
//! the simulated behaviour is exactly that of the bare agent.

use std::any::Any;
use std::collections::BTreeMap;

use ipop::{AppEnv, IpopConfig, IpopHostAgent, VirtualApp};
use ipop_netsim::{HostAgent, HostCtx, HostId, LinkParams, Network, NetworkSim};
use ipop_packet::ipv4::Ipv4Packet;
use ipop_simcore::{Duration, SimTime, TimerToken};

use crate::layers::{within, Layer};

/// Deterministic counts and outcomes, keyed by metric name.
pub type Counts = BTreeMap<&'static str, f64>;

/// `HostAgent` wrapper that attributes time and allocations to `core`.
pub struct TimedAgent {
    inner: IpopHostAgent,
    calls: u64,
    packets: u64,
}

impl TimedAgent {
    /// The wrapped IPOP node.
    pub fn inner(&self) -> &IpopHostAgent {
        &self.inner
    }

    /// Run `f` on the wrapped node inside the `core` layer (harness calls
    /// such as lookups and stream sends).
    pub fn call<T>(&mut self, f: impl FnOnce(&mut IpopHostAgent) -> T) -> T {
        within(Layer::Agent, || f(&mut self.inner))
    }

    /// The application the node runs, downcast.
    pub fn app<T: 'static>(&self) -> Option<&T> {
        self.inner
            .app_as::<TimedApp>()?
            .inner
            .as_any()
            .downcast_ref()
    }

    /// Mutable access to the application, downcast.
    pub fn app_mut<T: 'static>(&mut self) -> Option<&mut T> {
        self.inner
            .app_as_mut::<TimedApp>()?
            .inner
            .as_any_mut()
            .downcast_mut()
    }
}

impl HostAgent for TimedAgent {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, '_>) {
        self.calls += 1;
        within(Layer::Agent, || self.inner.on_start(ctx));
    }

    fn on_packet(&mut self, ctx: &mut HostCtx<'_, '_>, pkt: Ipv4Packet) {
        self.calls += 1;
        self.packets += 1;
        within(Layer::Agent, || self.inner.on_packet(ctx, pkt));
    }

    fn on_timer(&mut self, ctx: &mut HostCtx<'_, '_>, token: TimerToken) {
        self.calls += 1;
        within(Layer::Agent, || self.inner.on_timer(ctx, token));
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// `VirtualApp` wrapper that attributes time and allocations to `apps`.
pub struct TimedApp {
    inner: Box<dyn VirtualApp>,
}

impl VirtualApp for TimedApp {
    fn on_start(&mut self, env: &mut AppEnv<'_>) {
        within(Layer::App, || self.inner.on_start(env));
    }

    fn poll(&mut self, env: &mut AppEnv<'_>) -> Option<SimTime> {
        within(Layer::App, || self.inner.poll(env))
    }

    fn finished(&self) -> bool {
        self.inner.finished()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Build an IPOP node for `host` with `IpopHostAgent::new` (a set-up call in
/// `layer`) and install it behind the timing wrappers.
pub fn install(
    net: &mut Network,
    host: HostId,
    cfg: IpopConfig,
    app: Box<dyn VirtualApp>,
    layer: Layer,
) {
    let phys = net.host(host).addr;
    let agent = within(layer, || {
        IpopHostAgent::new(cfg, phys, Box::new(TimedApp { inner: app }))
    });
    net.set_agent(
        host,
        Box::new(TimedAgent {
            inner: agent,
            calls: 0,
            packets: 0,
        }),
    );
}

/// `NetworkSim::run_for`, inside the engine layer.
pub fn run_for(sim: &mut NetworkSim, span: Duration) {
    within(Layer::Engine, || sim.run_for(span));
}

/// The wrapped agent on `host`, if it still runs one.
pub fn agent(sim: &NetworkSim, host: HostId) -> Option<&TimedAgent> {
    sim.agent_as::<TimedAgent>(host)
}

/// Mutable access to the wrapped agent on `host`.
pub fn agent_mut(sim: &mut NetworkSim, host: HostId) -> Option<&mut TimedAgent> {
    sim.net_mut().agent_as_mut::<TimedAgent>(host)
}

/// Snapshot of the world's cumulative counters: the engine, the network
/// model, every live IPOP node and its overlay.
pub fn snapshot(sim: &NetworkSim) -> Counts {
    let net = sim.net();
    let c = net.counters();
    let mut m = Counts::new();
    m.insert("simcore.events", sim.events_executed() as f64);
    m.insert("netsim.delivered", c.delivered as f64);
    m.insert(
        "netsim.tx_bytes",
        net.hosts().iter().map(|h| h.counters.tx_bytes).sum::<u64>() as f64,
    );
    m.insert("netsim.impair_dropped", c.impair_dropped as f64);
    m.insert("netsim.link_dropped", c.link_dropped as f64);
    let mut add = |k: &'static str, v: u64| *m.entry(k).or_insert(0.0) += v as f64;
    for h in net.hosts() {
        let Some(a) = net.agent_as::<TimedAgent>(h.id) else {
            continue;
        };
        add("core.calls", a.calls);
        add("core.packets", a.packets);
        let im = a.inner.metrics();
        add("core.tunneled_tx", im.tunneled_tx);
        add("core.tunneled_rx", im.tunneled_rx);
        add("core.arp_queries", im.arp_queries);
        add(
            "services.dhcp_collisions",
            a.inner.allocation_collisions().unwrap_or(0),
        );
        let s = a.inner.overlay_stats();
        add("overlay.link_tx", s.link_tx);
        add("overlay.link_rx", s.link_rx);
        add("overlay.forwarded", s.forwarded);
        add("overlay.delivered", s.delivered);
        add(
            "overlay.dropped",
            s.dropped_ttl + s.dropped_no_target + s.dropped_maintenance,
        );
        add("overlay.link_probes_sent", s.link_probes_sent);
        add("overlay.dead_edges_detected", s.dead_edges_detected);
        add("overlay.dht_quorum_writes", s.dht_quorum_writes);
        add(
            "overlay.dht_quorum_write_timeouts",
            s.dht_quorum_write_timeouts,
        );
        add("overlay.dht_quorum_reads", s.dht_quorum_reads);
        add(
            "overlay.dht_quorum_read_timeouts",
            s.dht_quorum_read_timeouts,
        );
        add("overlay.dht_read_repairs", s.dht_read_repairs);
        add("overlay.dht_sync_digests", s.dht_sync_digests);
        add("overlay.dht_sync_pulls", s.dht_sync_pulls);
        add("overlay.dht_leases_lost", s.dht_leases_lost);
        add("overlay.pubsub_fanout_sent", s.pubsub_fanout_sent);
        add("overlay.pubsub_relayed", s.pubsub_relayed);
        add("overlay.pubsub_salvaged", s.pubsub_salvaged);
        add("overlay.stream_data_sent", s.stream_data_sent);
        add("overlay.stream_data_received", s.stream_data_received);
        add("overlay.stream_retransmits", s.stream_retransmits);
    }
    m
}

/// `after - before` for every key of `after`.
pub fn delta(before: &Counts, after: &Counts) -> Counts {
    after
        .iter()
        .map(|(k, v)| (*k, v - before.get(k).copied().unwrap_or(0.0)))
        .collect()
}

/// The links a packet from `src` to `dst` crosses: the source LAN and access
/// uplink, the destination access downlink and LAN (only the LAN when both
/// share a site).
pub fn path_links(net: &Network, src: HostId, dst: HostId) -> Vec<LinkParams> {
    let (s, d) = (net.host(src).site, net.host(dst).site);
    if s == d {
        return vec![net.site(s).lan.params];
    }
    vec![
        net.site(s).lan.params,
        net.site(s).access_up.params,
        net.site(d).access_down.params,
        net.site(d).lan.params,
    ]
}

/// One-way propagation delay of the physical path `src → dst` (link and core
/// latencies, no queueing, serialization or processing).
pub fn propagation(net: &Network, src: HostId, dst: HostId) -> Duration {
    let links: Duration = path_links(net, src, dst)
        .iter()
        .fold(Duration::ZERO, |acc, l| acc + l.latency);
    if net.host(src).site == net.host(dst).site {
        links
    } else {
        links + net.core.latency
    }
}

/// Bandwidth of the slowest link on the physical path, in bytes per second
/// (`LinkParams::bandwidth_bps` holds bytes per second).
pub fn bottleneck_bytes_per_s(net: &Network, src: HostId, dst: HostId) -> f64 {
    path_links(net, src, dst)
        .iter()
        .map(|l| l.bandwidth_bps)
        .fold(f64::INFINITY, f64::min)
}
