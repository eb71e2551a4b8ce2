//! `plab_selfconfig`: the control plane on a Planet-Lab-like WAN.
//!
//! Set-up builds the WAN and a small ring of statically addressed bootstrap
//! routers and warms it up. The measured phase then
//!
//! 1. joins every other host dynamically: a DHCP-over-DHT lease claimed by
//!    quorum create, plus a hostname registration;
//! 2. crashes a seeded set of joiners, none of which is a later endpoint,
//!    and waits for the overlay to repair;
//! 3. has survivors run name lookups, reverse lookups, Brunet-ARP
//!    resolutions and pings to seeded targets.
//!
//! Every packet is small: overlay maintenance, the link monitor, DHT quorum
//! writes and reads, anti-entropy and the services dominate the cost.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use ipop::{IpopConfig, NullApp, PlainHostAgent};
use ipop_netsim::{planetlab, HostId, Network, NetworkSim};
use ipop_overlay::Address;
use ipop_simcore::{Duration, SimTime, StreamRng};

use crate::ipopw::{self, agent, agent_mut, run_for};
use crate::layers::{within, Layer};
use crate::pinger::Pinger;
use crate::round::{median, quantile, Meter, Round};

/// Sizes of one `plab_selfconfig` round.
#[derive(Clone, Debug)]
pub struct Params {
    /// Hosts in the WAN.
    pub hosts: usize,
    /// Statically addressed bootstrap routers (the first hosts).
    pub routers: usize,
    /// Joiners that crash after every lease is bound.
    pub crashes: usize,
    /// Survivors that query: each looks up the name and address of its
    /// first target, resolves it by Brunet-ARP, and pings all its targets.
    pub sources: usize,
    /// Targets per source.
    pub targets: usize,
    /// Pings per target.
    pub pings_per_target: u32,
}

impl Params {
    /// The benchmark's size.
    pub fn full() -> Params {
        Params {
            hosts: 100,
            routers: 8,
            crashes: 8,
            sources: 80,
            targets: 4,
            pings_per_target: 10,
        }
    }

    /// A reduced size for tests.
    pub fn small() -> Params {
        Params {
            hosts: 24,
            routers: 4,
            crashes: 2,
            sources: 6,
            targets: 2,
            pings_per_target: 3,
        }
    }
}

/// Subnet joiners lease addresses from.
const SUBNET: (Ipv4Addr, u8) = (Ipv4Addr::new(172, 16, 8, 0), 22);
/// The WAN's latencies and bandwidths come from this fixed seed; `--seed`
/// drives everything that runs on it. A seeded WAN moves the median ping RTT
/// by 17 % (quartile spread over ten seeds) against 8 % with a fixed one.
const WAN_SEED: u64 = 0x9ab5;
/// CPU load of every WAN host (1 = idle machine).
const LOAD: f64 = 1.0;
const WARMUP: Duration = Duration::from_secs(30);
/// Gap between consecutive joins.
const JOIN_SPACING: Duration = Duration::from_millis(100);
// The phases last fixed virtual times, not "until done", so that every seed
// simulates the same span of background maintenance.
/// Joiners get this long to bind after the last join.
const BIND_TIME: Duration = Duration::from_secs(20);
/// Quiet period after the crash for ring repair and DHT re-replication.
const REPAIR: Duration = Duration::from_secs(60);
const PING_INTERVAL: Duration = Duration::from_millis(100);
/// Queries get this long to complete.
const QUERY_TIME: Duration = Duration::from_secs(12);

fn in_subnet(ip: Ipv4Addr) -> bool {
    let mask = u32::MAX << (32 - SUBNET.1);
    u32::from(ip) & mask == u32::from(SUBNET.0)
}

/// Run one round.
pub fn round(seed: u64, p: &Params) -> Round {
    assert!(p.routers >= 1 && p.hosts > p.routers + p.crashes + p.sources && p.sources > p.targets);
    let mut meter = Meter::start();
    let mut r = Round::default();
    let mut rng = StreamRng::new(seed, "perfbench.plab");

    // ---- set-up: WAN, bootstrap routers, warm-up.
    let mut net = Network::new(seed);
    let wan = within(Layer::Setup, || {
        planetlab(&mut net, p.hosts, LOAD, WAN_SEED)
    });
    let boot_eps: Vec<_> = wan.addrs[..p.routers].iter().map(|&a| (a, 4001)).collect();
    for (i, &h) in wan.nodes[..p.routers].iter().enumerate() {
        let mut cfg = IpopConfig::new(Ipv4Addr::new(172, 16, 0, 1 + i as u8)).with_brunet_arp();
        if i > 0 {
            cfg = cfg.with_bootstrap(vec![boot_eps[0]]);
        }
        ipopw::install(&mut net, h, cfg, Box::new(NullApp), Layer::Setup);
    }
    let mut sim = NetworkSim::new(net);
    run_for(&mut sim, WARMUP);
    let before = ipopw::snapshot(&sim);
    meter.setup_done();

    // ---- joins, in a seeded order.
    let mut joiners: Vec<usize> = (p.routers..p.hosts).collect();
    shuffle(&mut joiners, &mut rng);
    let name_of = |i: usize| format!("grid-{i:03}");
    for &i in &joiners {
        let cfg = IpopConfig::dynamic(SUBNET)
            .with_hostname(&name_of(i))
            .with_bootstrap(boot_eps.clone());
        let host = wan.nodes[i];
        ipopw::install(
            sim.net_mut(),
            host,
            cfg,
            Box::<Pinger>::default(),
            Layer::Agent,
        );
        sim.start_host(host);
        run_for(&mut sim, JOIN_SPACING);
    }
    run_for(&mut sim, BIND_TIME);
    let bind_s: Vec<f64> = joiners
        .iter()
        .filter_map(|&i| agent(&sim, wan.nodes[i])?.inner().allocation_latency())
        .map(|d| d.as_secs_f64())
        .collect();
    let holders = leases(&sim, &wan.nodes, &joiners);
    r.ops(joiners.len() as u64, (joiners.len() - holders.len()) as u64);
    r.check(holders.len() == joiners.len(), || {
        format!(
            "{} of {} joiners hold a lease",
            holders.len(),
            joiners.len()
        )
    });
    let duplicates_at_bind = holders.len() - distinct(&holders);

    // ---- crash a seeded set of joiners; endpoints come from the survivors.
    let mut order = joiners.clone();
    shuffle(&mut order, &mut rng);
    let (crashed, survivors) = order.split_at(p.crashes);
    // Crashed nodes' counters leave the world with them: count the phase in
    // two parts, each over the nodes alive during it.
    let mut d = ipopw::delta(&before, &ipopw::snapshot(&sim));
    for &i in crashed {
        ipop::deploy_plain(sim.net_mut(), wan.nodes[i], Box::new(NullApp));
    }
    r.check(
        crashed
            .iter()
            .all(|&i| sim.agent_as::<PlainHostAgent>(wan.nodes[i]).is_some()),
        || "a crashed host still runs IPOP".into(),
    );
    let after_crash = ipopw::snapshot(&sim);
    run_for(&mut sim, REPAIR);

    // ---- the survivors' leases, which the queries below rely on.
    let held = leases(&sim, &wan.nodes, survivors);
    r.check(held.len() == survivors.len(), || {
        format!(
            "{} of {} survivors hold a lease",
            held.len(),
            survivors.len()
        )
    });
    r.check(distinct(&held) == held.len(), || {
        format!(
            "{} leases for {} distinct addresses",
            held.len(),
            distinct(&held)
        )
    });
    let outside = held.values().filter(|&&(ip, _)| !in_subnet(ip)).count();
    r.check(outside == 0, || {
        format!("{outside} leases outside the subnet")
    });
    let vip: BTreeMap<usize, Ipv4Addr> = held.iter().map(|(&i, &(ip, _))| (i, ip)).collect();
    let oaddr: BTreeMap<usize, Address> = held.iter().map(|(&i, &(_, a))| (i, a)).collect();

    // ---- queries from seeded survivors to seeded survivor targets.
    let plans: Vec<(usize, Vec<usize>)> = survivors[..p.sources]
        .iter()
        .map(|&src| {
            let mut targets = Vec::with_capacity(p.targets);
            while targets.len() < p.targets {
                let t = survivors[rng.index(survivors.len())];
                if t != src && !targets.contains(&t) {
                    targets.push(t);
                }
            }
            (src, targets)
        })
        .collect();
    let pings = p.pings_per_target * p.targets as u32;
    let now = sim.now();
    let mut probe_want: BTreeMap<(usize, u64), Address> = BTreeMap::new();
    for (src, targets) in &plans {
        let dst = targets[0];
        let (dst_name, dst_ip) = (name_of(dst), vip[&dst]);
        let a = agent_mut(&mut sim, wan.nodes[*src]).expect("survivor runs IPOP");
        let cached = a.call(|n| {
            (
                n.lookup_name(now, &dst_name).is_some(),
                n.lookup_ip(now, dst_ip).is_some(),
            )
        });
        r.check(cached == (false, false), || {
            format!("{} answered a first lookup from its cache", name_of(*src))
        });
        let token = a.call(|n| n.resolve_ip(now, dst_ip));
        probe_want.insert((*src, token), oaddr[&dst]);
        let ips = targets.iter().map(|t| vip[t]).collect();
        a.app_mut::<Pinger>()
            .expect("joiners run the pinger")
            .plan(ips, pings, PING_INTERVAL);
    }
    run_for(&mut sim, QUERY_TIME);
    let mut names: BTreeMap<usize, Vec<(String, Option<Ipv4Addr>)>> = BTreeMap::new();
    let mut reverse: BTreeMap<usize, Vec<(Ipv4Addr, Option<String>)>> = BTreeMap::new();
    let mut probes: BTreeMap<usize, Vec<(u64, Option<Address>)>> = BTreeMap::new();
    for (src, _) in &plans {
        let a = agent_mut(&mut sim, wan.nodes[*src]).expect("survivor runs IPOP");
        let (n, rv, pr) = a.call(|n| {
            (
                n.take_name_results(),
                n.take_reverse_results(),
                n.take_probe_results(),
            )
        });
        names.insert(*src, n);
        reverse.insert(*src, rv);
        probes.insert(*src, pr);
    }

    // ---- checks against what the benchmark knows each holder to be.
    let holder: BTreeMap<Ipv4Addr, usize> = vip.iter().map(|(&i, &ip)| (ip, i)).collect();
    let mut rtts: Vec<f64> = Vec::new();
    let (mut wrong_name, mut wrong_rev, mut wrong_probe) = (0u64, 0u64, 0u64);
    let (mut lost, mut below, mut strays) = (0u64, 0usize, 0u64);
    for (src, targets) in &plans {
        let (src, want_name) = (*src, name_of(targets[0]));
        let want_ip = vip[&targets[0]];
        wrong_name += u64::from(names[&src] != [(want_name.clone(), Some(want_ip))]);
        wrong_rev += u64::from(reverse[&src] != [(want_ip, Some(want_name))]);
        wrong_probe += u64::from(
            probes[&src].len() != 1
                || probes[&src]
                    .iter()
                    .any(|&(t, got)| probe_want.get(&(src, t)).copied() != got || got.is_none()),
        );
        let pinger = agent(&sim, wan.nodes[src])
            .and_then(|a| a.app::<Pinger>())
            .expect("joiners run the pinger");
        lost += u64::from(pings - pinger.rtts_ms.len() as u32);
        strays += u64::from(pinger.strays);
        for &(to, ms) in &pinger.rtts_ms {
            let dst = wan.nodes[holder[&to]];
            let min_ms = 2.0 * ipopw::propagation(sim.net(), wan.nodes[src], dst).as_millis_f64();
            below += usize::from(ms < min_ms);
            rtts.push(ms);
        }
    }
    let sources = plans.len() as u64;
    r.ops(3 * sources, wrong_name + wrong_rev + wrong_probe);
    r.ops(sources * u64::from(pings), lost);
    r.check(wrong_name == 0, || {
        format!("{wrong_name} wrong or missing name lookups")
    });
    r.check(wrong_rev == 0, || {
        format!("{wrong_rev} wrong or missing reverse lookups")
    });
    r.check(wrong_probe == 0, || {
        format!("{wrong_probe} wrong or missing resolutions")
    });
    r.check(lost == 0, || format!("{lost} pings unanswered"));
    r.check(strays == 0, || {
        format!("{strays} replies from a host not pinged")
    });
    r.check(below == 0, || {
        format!("{below} ping RTTs below twice the path's one-way propagation")
    });

    for (k, v) in ipopw::delta(&after_crash, &ipopw::snapshot(&sim)) {
        *d.entry(k).or_insert(0.0) += v;
    }
    d.insert("services.bind_duplicates", duplicates_at_bind as f64);
    d.insert("bind_s", median(&bind_s));
    d.insert("ping_rtt_ms", quantile(&rtts, 0.5));
    d.insert("ping_rtt_p99_ms", quantile(&rtts, 0.99));
    d.insert("latency_ms", quantile(&rtts, 0.5));
    d.insert("latency_p99_ms", quantile(&rtts, 0.99));
    d.insert("op_s", median(&bind_s));
    d.insert(
        "virtual_s",
        sim.now().saturating_since(SimTime::ZERO).as_secs_f64(),
    );
    let (packets, events) = (d["core.packets"], d["simcore.events"]);
    r.det = d;
    meter.finish(&mut r, packets, events);
    r
}

/// `(virtual IP, overlay address)` of every host in `which` that holds a
/// lease, read from its agent.
fn leases(
    sim: &NetworkSim,
    nodes: &[HostId],
    which: &[usize],
) -> BTreeMap<usize, (Ipv4Addr, Address)> {
    which
        .iter()
        .filter_map(|&i| {
            let a = agent(sim, nodes[i])?.inner();
            a.has_address()
                .then(|| (i, (a.virtual_ip(), a.overlay_address())))
        })
        .collect()
}

/// Number of distinct addresses among `leases`.
fn distinct(leases: &BTreeMap<usize, (Ipv4Addr, Address)>) -> usize {
    leases
        .values()
        .map(|&(ip, _)| ip)
        .collect::<BTreeSet<_>>()
        .len()
}

/// Fisher-Yates shuffle driven by the workload's seeded stream.
fn shuffle<T>(xs: &mut [T], rng: &mut StreamRng) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.index(i + 1));
    }
}
