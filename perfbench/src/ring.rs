//! `ring_10k`: overlay routing and pub/sub fan-out on a 10 000-node ring.
//!
//! `OverlayNode`s run directly on the interned `ScaleNet` substrate under a
//! `ShardedSim` whose shards run one after another on this thread. Set-up
//! builds the ring warm: near edges to the ring neighbours and half of each
//! node's shortcut budget, as after a completed join. The measured phase runs
//! maintenance rounds that form the remaining shortcuts, seeded Exact-mode
//! routing probes, and publishes on a few topics with many subscribers.
//!
//! Link messages pass between nodes as structs, so `netstack`, `core`, the
//! apps, the `Network` model and the wire codecs are bypassed.

use std::collections::BTreeSet;
use std::sync::Arc;

use ipop_netsim::ScaleNet;
use ipop_overlay::address::Address;
use ipop_overlay::node::{OverlayConfig, OverlayNode};
use ipop_overlay::packets::{ConnectionKind, LinkMessage, RoutedPayload};
use ipop_overlay::pubsub::topic_key;
use ipop_packet::Bytes;
use ipop_simcore::{
    Duration, ShardCtl, ShardRunOutcome, ShardWorld, ShardedSim, SimTime, StreamRng,
};

use crate::ipopw::Counts;
use crate::layers::{within, Layer};
use crate::round::{quantile, ratio, Meter, Round};

/// Sizes of one `ring_10k` round.
#[derive(Clone, Debug)]
pub struct Params {
    pub nodes: u32,
    pub shards: u32,
    /// Fan shards out over threads instead of running them in turn.
    pub parallel: bool,
    /// Maintenance rounds every node runs.
    pub maintenance_ticks: u32,
    /// Routing probes (seeded source and target).
    pub probes: u32,
    /// Topics; their roots and relay trees are independent of each other.
    pub topics: u32,
    /// Subscribers of every topic, spread evenly around the ring.
    pub subscribers: u32,
    /// Publishes, on the topics in turn (from seeded non-subscribers).
    pub publishes: u32,
}

impl Params {
    /// The benchmark's size.
    pub fn full() -> Params {
        Params {
            nodes: 10_000,
            shards: 8,
            parallel: false,
            maintenance_ticks: 4,
            probes: 2_000,
            topics: 4,
            subscribers: 2_000,
            publishes: 8,
        }
    }

    /// A reduced size for tests.
    pub fn small() -> Params {
        Params {
            nodes: 256,
            shards: 4,
            parallel: false,
            maintenance_ticks: 3,
            probes: 100,
            topics: 2,
            subscribers: 50,
            publishes: 3,
        }
    }
}

/// The ring itself (addresses, link latencies, seeded shortcuts and the
/// nodes' random streams) comes from this fixed seed; `--seed` drives the
/// traffic: probe pairs, publishers and the published body. With the ring
/// drawn from `--seed` too, the median fan-out latency spreads by 8-9 %
/// (quartiles over ten seeds) against 4 % with a fixed ring.
const RING_SEED: u64 = 0x5ca1e;
const NEAR_PER_SIDE: usize = 2;
const MAX_SHORTCUTS: usize = 4;
const SEEDED_SHORTCUTS: usize = 2;
const PUBSUB_FANOUT: usize = 4;
const INTERVAL: Duration = Duration::from_millis(500);
/// Slice width, and the substrate's minimum link latency.
const SLICE: Duration = Duration::from_millis(1);
const JITTER: Duration = Duration::from_millis(9);
const PROBE_SPACING: Duration = Duration::from_millis(1);
const SUBSCRIBE_SPACING: Duration = Duration::from_micros(250);
/// Quiet time for the subscriber record to settle before publishing.
const SETTLE: Duration = Duration::from_secs(3);
const PUBLISH_SPACING: Duration = Duration::from_millis(200);
/// Subscriptions outlive the round, so none is renewed mid-measurement.
const SUB_TTL: Duration = Duration::from_secs(3600);

enum Ev {
    Deliver {
        src: u32,
        dst: u32,
        msg: LinkMessage,
    },
    Tick {
        dst: u32,
        remaining: u32,
    },
    Probe {
        id: u32,
        src: u32,
        target: u32,
    },
    Subscribe {
        dst: u32,
        topic: usize,
    },
    Publish {
        src: u32,
        topic: usize,
    },
}

/// A probe delivery: probe id, node it arrived at, overlay hops, arrival.
type ProbeArrival = (u64, u32, u8, SimTime);

struct Shard {
    net: ScaleNet,
    lo: u32,
    nodes: Vec<OverlayNode>,
    addrs: Arc<Vec<Address>>,
    topics: Arc<Vec<Address>>,
    payload: Bytes,
    probes_sent: Vec<(u32, SimTime)>,
    probe_arrivals: Vec<ProbeArrival>,
    /// `(message id, publish instant)`.
    publishes: Vec<(u64, SimTime)>,
    /// `(message id, subscriber, arrival)`.
    fanout_arrivals: Vec<(u64, u32, SimTime)>,
    /// Slice indices in which this shard's handlers ran.
    slices: BTreeSet<u64>,
    cross_msgs: u64,
}

impl Shard {
    /// One call into node `dst`, then the flush of its outbox and inboxes.
    fn call(
        &mut self,
        dst: u32,
        now: SimTime,
        ctl: &mut ShardCtl<Ev>,
        f: impl FnOnce(&mut OverlayNode),
    ) {
        let idx = (dst - self.lo) as usize;
        let node = &mut self.nodes[idx];
        let (out, delivered, topic) = within(Layer::Overlay, || {
            f(node);
            (
                node.take_outbox(),
                node.take_delivered(),
                node.take_pubsub_delivered(),
            )
        });
        let own = ctl.shard();
        for (ep, msg) in out {
            let Some(to) = self.net.node_of(&ep) else {
                continue;
            };
            let shard = self.net.shard_of(to) as usize;
            self.cross_msgs += u64::from(shard != own);
            let at = now + self.net.latency(dst, to);
            ctl.send(
                shard,
                at,
                Ev::Deliver {
                    src: dst,
                    dst: to,
                    msg,
                },
            );
        }
        for pkt in delivered {
            let id = match &pkt.payload {
                RoutedPayload::IpTunnel(b) => b
                    .get(..8)
                    .and_then(|b| <[u8; 8]>::try_from(b).ok())
                    .map_or(u64::MAX, u64::from_le_bytes),
                _ => u64::MAX,
            };
            self.probe_arrivals.push((id, dst, pkt.hops, now));
        }
        for (_topic, msg_id, _body) in topic {
            self.fanout_arrivals.push((msg_id, dst, now));
        }
    }
}

impl ShardWorld for Shard {
    type Ev = Ev;

    fn handle(&mut self, now: SimTime, ev: Ev, ctl: &mut ShardCtl<Ev>) {
        let _handler = crate::layers::Scope::enter(Layer::Handler);
        self.slices.insert(now.as_nanos() / SLICE.as_nanos());
        match ev {
            Ev::Deliver { src, dst, msg } => {
                let from = self.net.endpoint(src);
                self.call(dst, now, ctl, |n| n.on_message(now, from, msg));
            }
            Ev::Tick { dst, remaining } => {
                self.call(dst, now, ctl, |n| n.on_tick(now));
                if remaining > 0 {
                    ctl.send_local(
                        now + INTERVAL,
                        Ev::Tick {
                            dst,
                            remaining: remaining - 1,
                        },
                    );
                }
            }
            Ev::Probe { id, src, target } => {
                let to = self.addrs[target as usize];
                self.probes_sent.push((id, now));
                let body = u64::from(id).to_le_bytes().to_vec();
                self.call(src, now, ctl, |n| n.send_ip(now, to, body));
            }
            Ev::Subscribe { dst, topic } => {
                let topic = self.topics[topic];
                self.call(dst, now, ctl, |n| n.pubsub_subscribe(now, topic, SUB_TTL));
            }
            Ev::Publish { src, topic } => {
                let (topic, body) = (self.topics[topic], self.payload.clone());
                let mut id = 0;
                self.call(src, now, ctl, |n| id = n.pubsub_publish(now, topic, body));
                self.publishes.push((id, now));
            }
        }
    }
}

/// Deterministic distinct ring addresses, ascending.
fn ring_addresses(n: u32) -> Vec<Address> {
    let mut rng = StreamRng::new(RING_SEED, "perfbench.ring.addresses");
    let mut addrs: Vec<Address> = (0..n)
        .map(|_| {
            let mut b = [0u8; 20];
            for chunk in b.chunks_mut(8) {
                chunk.copy_from_slice(&rng.next_u64().to_le_bytes()[..chunk.len()]);
            }
            Address(b)
        })
        .collect();
    addrs.sort_unstable();
    addrs.dedup();
    assert_eq!(addrs.len(), n as usize, "160-bit address collision");
    addrs
}

/// The substrate and warm nodes: near edges to `NEAR_PER_SIDE` neighbours on
/// each side and `SEEDED_SHORTCUTS` harmonically drawn far edges per node.
fn build_ring(p: &Params) -> (ScaleNet, Arc<Vec<Address>>, Vec<OverlayNode>) {
    let net = ScaleNet::new(p.nodes, p.shards, RING_SEED, SLICE, JITTER);
    let n = p.nodes as usize;
    let addrs = Arc::new(ring_addresses(p.nodes));
    let ttl = ((4.0 * f64::from(p.nodes).log2()) as u8).clamp(32, 128);
    let mut nodes: Vec<OverlayNode> = (0..n)
        .map(|i| {
            let cfg = OverlayConfig::new(addrs[i], net.endpoint(i as u32))
                .without_link_monitor()
                .without_anti_entropy()
                .with_near_per_side(NEAR_PER_SIDE)
                .with_max_shortcuts(MAX_SHORTCUTS)
                .with_maintenance_interval(INTERVAL)
                .with_packet_ttl(ttl)
                .with_pubsub_fanout(PUBSUB_FANOUT);
            OverlayNode::new(
                cfg,
                StreamRng::new(RING_SEED, &format!("perfbench.ring.node.{i}")),
            )
        })
        .collect();
    let t0 = SimTime::ZERO;
    for (i, node) in nodes.iter_mut().enumerate() {
        for d in 1..=NEAR_PER_SIDE.min(n / 2) {
            for j in [(i + d) % n, (i + n - d) % n] {
                if j != i {
                    node.seed_connection(
                        t0,
                        addrs[j],
                        net.endpoint(j as u32),
                        ConnectionKind::Near,
                    );
                }
            }
        }
    }
    let mut far = StreamRng::new(RING_SEED, "perfbench.ring.far");
    for i in 0..n {
        for _ in 0..SEEDED_SHORTCUTS {
            // Harmonic draw: n^u for uniform u gives P(offset = d) ∝ 1/d.
            let offset = ((n as f64).powf(far.unit()) as usize).clamp(1, n - 1);
            let j = (i + offset) % n;
            if nodes[i].connections().contains(&addrs[j])
                || nodes[j].connections().contains(&addrs[i])
            {
                continue;
            }
            nodes[i].seed_connection(t0, addrs[j], net.endpoint(j as u32), ConnectionKind::Far);
            nodes[j].seed_connection(t0, addrs[i], net.endpoint(i as u32), ConnectionKind::Far);
        }
    }
    (net, addrs, nodes)
}

/// What a round leaves behind besides its metrics, for tests.
pub struct RingRun {
    pub round: Round,
    pub trace_hash: u64,
}

/// Run one round.
pub fn round(seed: u64, p: &Params) -> Round {
    run(seed, p).round
}

/// Run one round and keep the simulator's trace hash.
pub fn run(seed: u64, p: &Params) -> RingRun {
    assert!(p.subscribers + p.publishes < p.nodes);
    let mut meter = Meter::start();
    let mut r = Round::default();
    let mut rng = StreamRng::new(seed, "perfbench.ring.workload");

    // ---- set-up: substrate, warm ring, shards.
    let (net, addrs, nodes) = within(Layer::Setup, || build_ring(p));
    let topics: Arc<Vec<Address>> = Arc::new(
        (0..p.topics)
            .map(|t| topic_key(&format!("perfbench-{t}")))
            .collect(),
    );
    let payload = Bytes::from((0..64).map(|_| rng.next_u64() as u8).collect::<Vec<u8>>());
    let mut sim = within(Layer::Setup, || {
        let mut nodes = nodes.into_iter();
        let worlds = (0..net.shards())
            .map(|s| Shard {
                net,
                lo: net.shard_start(s),
                nodes: nodes
                    .by_ref()
                    .take((net.shard_end(s) - net.shard_start(s)) as usize)
                    .collect(),
                addrs: Arc::clone(&addrs),
                topics: Arc::clone(&topics),
                payload: payload.clone(),
                probes_sent: Vec::new(),
                probe_arrivals: Vec::new(),
                publishes: Vec::new(),
                fanout_arrivals: Vec::new(),
                slices: BTreeSet::new(),
                cross_msgs: 0,
            })
            .collect();
        ShardedSim::new(worlds, SLICE, p.parallel)
    });
    meter.setup_done();

    // ---- the measured phase's schedule.
    let n = p.nodes;
    let shard = |i: u32| net.shard_of(i) as usize;
    let interval_ns = INTERVAL.as_nanos();
    for i in 0..n {
        let at = SimTime::from_nanos(u64::from(i) * interval_ns / u64::from(n));
        sim.schedule(
            shard(i),
            at,
            Ev::Tick {
                dst: i,
                remaining: p.maintenance_ticks,
            },
        );
    }
    let probe_start = SimTime::ZERO + INTERVAL * u64::from(p.maintenance_ticks + 2);
    let mut targets = Vec::with_capacity(p.probes as usize);
    for id in 0..p.probes {
        let src = rng.index(n as usize) as u32;
        let mut target = rng.index(n as usize) as u32;
        if target == src {
            target = (src + 1) % n;
        }
        targets.push(target);
        sim.schedule(
            shard(src),
            probe_start + PROBE_SPACING * u64::from(id),
            Ev::Probe { id, src, target },
        );
    }
    // Subscribers sit evenly around the ring; publishers are seeded among
    // the rest.
    let stride = n / p.subscribers;
    let subscribers: Vec<u32> = (0..p.subscribers).map(|k| k * stride).collect();
    let mut publishers: Vec<u32> = Vec::with_capacity(p.publishes as usize);
    while publishers.len() < p.publishes as usize {
        let s = rng.index(n as usize) as u32;
        if !s.is_multiple_of(stride) && !publishers.contains(&s) {
            publishers.push(s);
        }
    }
    let subscribers = &subscribers[..];
    let sub_start = probe_start + PROBE_SPACING * u64::from(p.probes);
    let mut at = sub_start;
    for topic in 0..p.topics as usize {
        for &s in subscribers {
            sim.schedule(shard(s), at, Ev::Subscribe { dst: s, topic });
            at += SUBSCRIBE_SPACING;
        }
    }
    let pub_start = at + SETTLE;
    for (k, &s) in publishers.iter().enumerate() {
        let topic = k % p.topics as usize;
        sim.schedule(
            shard(s),
            pub_start + PUBLISH_SPACING * k as u64,
            Ev::Publish { src: s, topic },
        );
    }
    let limit = pub_start + PUBLISH_SPACING * u64::from(p.publishes) + Duration::from_secs(60);
    let outcome = within(Layer::Barrier, || sim.run_until(limit));
    r.check(outcome == ShardRunOutcome::Drained, || {
        "event queues did not drain".into()
    });

    // ---- checks: probes, then fan-out deliveries per (publish, subscriber).
    let ttl = ((4.0 * f64::from(n).log2()) as u8).clamp(32, 128);
    let mut sent_at = vec![SimTime::ZERO; p.probes as usize];
    let mut seen = vec![0u32; p.probes as usize];
    let (mut misplaced, mut over_ttl) = (0u64, 0u64);
    let (mut hops, mut route_ms) = (Vec::new(), Vec::new());
    for w in sim.worlds() {
        for &(id, at) in &w.probes_sent {
            sent_at[id as usize] = at;
        }
    }
    for w in sim.worlds() {
        for &(id, node, h, at) in &w.probe_arrivals {
            let Some(slot) = seen.get_mut(id as usize) else {
                misplaced += 1;
                continue;
            };
            *slot += 1;
            misplaced += u64::from(targets[id as usize] != node);
            over_ttl += u64::from(h > ttl);
            hops.push(f64::from(h));
            route_ms.push(at.saturating_since(sent_at[id as usize]).as_millis_f64());
        }
    }
    let undelivered = seen.iter().filter(|&&c| c == 0).count() as u64;
    let duplicated = seen.iter().filter(|&&c| c > 1).count();
    r.ops(u64::from(p.probes), undelivered);
    r.check(undelivered == 0, || {
        format!("{undelivered} probes undelivered")
    });
    r.check(duplicated == 0, || {
        format!("{duplicated} probes delivered twice")
    });
    r.check(misplaced == 0, || {
        format!("{misplaced} probes delivered off target")
    });
    r.check(over_ttl == 0, || {
        format!("{over_ttl} probes took more hops than the TTL")
    });

    let mut published: Vec<(u64, SimTime)> =
        sim.worlds().flat_map(|w| w.publishes.clone()).collect();
    published.sort_unstable();
    let mut pairs: Vec<(u64, u32)> = Vec::new();
    let mut fan_ms = Vec::new();
    for w in sim.worlds() {
        for &(id, node, at) in &w.fanout_arrivals {
            pairs.push((id, node));
            if let Ok(k) = published.binary_search_by_key(&id, |&(i, _)| i) {
                fan_ms.push(at.saturating_since(published[k].1).as_millis_f64());
            }
        }
    }
    pairs.sort_unstable();
    let mut want: Vec<(u64, u32)> = published
        .iter()
        .flat_map(|&(id, _)| subscribers.iter().map(move |&s| (id, s)))
        .collect();
    want.sort_unstable();
    let expected = want.len() as u64;
    let missing = want
        .iter()
        .filter(|x| pairs.binary_search(x).is_err())
        .count() as u64;
    r.ops(expected, missing);
    r.check(published.len() == p.publishes as usize, || {
        format!("{} of {} publishes issued", published.len(), p.publishes)
    });
    r.check(pairs == want, || {
        format!(
            "fan-out delivered {} (publish, subscriber) pairs, {expected} expected, {missing} missing",
            pairs.len()
        )
    });
    let min_ms = SLICE.as_millis_f64();
    let too_fast = fan_ms.iter().filter(|&&x| x < min_ms).count();
    r.check(too_fast == 0, || {
        format!("{too_fast} fan-out latencies below the minimum link latency")
    });

    // ---- counts.
    let mut d = Counts::new();
    let mut slices = BTreeSet::new();
    let mut add = |k: &'static str, v: u64| *d.entry(k).or_insert(0.0) += v as f64;
    for w in sim.worlds() {
        slices.extend(w.slices.iter().copied());
        add("shard.cross_msgs", w.cross_msgs);
        for node in &w.nodes {
            let s = node.stats();
            add("overlay.link_tx", s.link_tx);
            add("overlay.link_rx", s.link_rx);
            add("overlay.forwarded", s.forwarded);
            add("overlay.delivered", s.delivered);
            add(
                "overlay.dropped",
                s.dropped_ttl + s.dropped_no_target + s.dropped_maintenance,
            );
            add("overlay.pubsub_fanout_sent", s.pubsub_fanout_sent);
            add("overlay.pubsub_relayed", s.pubsub_relayed);
            add("overlay.pubsub_salvaged", s.pubsub_salvaged);
            add(
                "overlay.shortcuts",
                node.connections().count_kind(ConnectionKind::Far) as u64,
            );
        }
    }
    d.insert("shard.slices", slices.len() as f64);
    d.insert("simcore.events", sim.executed() as f64);
    d.insert("route_hops", ratio(hops.iter().sum(), hops.len() as f64));
    d.insert("fanout_ms", quantile(&fan_ms, 0.5));
    d.insert("fanout_p99_ms", quantile(&fan_ms, 0.99));
    d.insert("latency_ms", quantile(&fan_ms, 0.5));
    d.insert("latency_p99_ms", quantile(&fan_ms, 0.99));
    d.insert("op_s", quantile(&route_ms, 0.5) / 1000.0);
    d.insert(
        "virtual_s",
        sim.now().saturating_since(SimTime::ZERO).as_secs_f64(),
    );
    let events = d["simcore.events"];
    r.det = d;
    let trace_hash = sim.trace_hash();
    meter.finish(&mut r, 0.0, events);
    RingRun {
        round: r,
        trace_hash,
    }
}
