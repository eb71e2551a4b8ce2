//! `wan_bulk`: the data plane on the paper's Fig. 4 testbed.
//!
//! Six IPOP nodes on the UDP transport with the figure's static addresses.
//! Set-up builds the testbed and the nodes and warms the overlay up. The
//! measured phase then runs
//!
//! * phase A: one ttcp transfer F4 → V1, the Table III path, while F2 pings
//!   V1 once every few milliseconds across the same bottleneck, and
//! * phase B: one virtual stream F4 → V1 carrying seeded bytes, with a
//!   seeded 1 % loss on every path, so stream retransmission and RTO timing
//!   decide how long it takes.

use std::net::Ipv4Addr;

use ipop::{IpopConfig, NullApp, VirtualApp};
use ipop_apps::ttcp::TtcpApp;
use ipop_netsim::{fig4_testbed, LinkImpairment, Network, NetworkSim};
use ipop_simcore::{Duration, SimTime, StreamRng};

use crate::ipopw::{self, agent, agent_mut, run_for};
use crate::layers::{within, Layer};
use crate::pinger::Pinger;
use crate::round::{quantile, ratio, Meter, Round};

/// Sizes of one `wan_bulk` round.
#[derive(Clone, Debug)]
pub struct Params {
    /// Bytes of the phase A ttcp transfer.
    pub ttcp_bytes: u64,
    /// Pings F2 → V1 during phase A.
    pub pings: u32,
    /// Gap between pings.
    pub ping_interval: Duration,
    /// Bytes of the phase B stream.
    pub stream_bytes: usize,
    /// Loss probability on every path during phase B.
    pub loss: f64,
}

impl Params {
    /// The benchmark's size.
    pub fn full() -> Params {
        Params {
            ttcp_bytes: 8_000_000,
            pings: 1_200,
            ping_interval: Duration::from_millis(5),
            stream_bytes: 1_000_000,
            loss: 0.01,
        }
    }

    /// A reduced size for tests.
    pub fn small() -> Params {
        Params {
            ttcp_bytes: 600_000,
            pings: 60,
            ping_interval: Duration::from_millis(5),
            stream_bytes: 100_000,
            loss: 0.01,
        }
    }
}

/// Virtual time the overlay gets to form before the measured phase.
const WARMUP: Duration = Duration::from_secs(20);
/// Pings start once the ttcp transfer has left slow start.
const PING_DELAY: Duration = Duration::from_millis(500);
const TTCP_PORT: u16 = 5201;
/// Observation step while a transfer runs.
const STEP: Duration = Duration::from_millis(5);
/// Give up on a transfer after this much virtual time.
const DEADLINE: Duration = Duration::from_secs(600);

/// Static virtual addresses, in the order F1, F2, F3, F4, V1, L1.
const VIPS: [Ipv4Addr; 6] = [
    Ipv4Addr::new(172, 16, 0, 3),
    Ipv4Addr::new(172, 16, 0, 4),
    Ipv4Addr::new(172, 16, 0, 51),
    Ipv4Addr::new(172, 16, 0, 2),
    Ipv4Addr::new(172, 16, 0, 18),
    Ipv4Addr::new(172, 16, 0, 20),
];
const F2: usize = 1;
const F4: usize = 3;
const V1: usize = 4;

/// Run one round.
pub fn round(seed: u64, p: &Params) -> Round {
    let mut meter = Meter::start();
    let mut r = Round::default();

    // ---- set-up: testbed, nodes, overlay warm-up.
    let mut net = Network::new(seed);
    let tb = within(Layer::Setup, || fig4_testbed(&mut net));
    let hosts = tb.all();
    let boot = hosts
        .iter()
        .copied()
        .find(|&h| net.publicly_reachable(h))
        .expect("the testbed has a public host");
    let boot_ep = (net.host(boot).addr, 4001);
    for (i, &h) in hosts.iter().enumerate() {
        let mut cfg = IpopConfig::new(VIPS[i]);
        if h != boot {
            cfg = cfg.with_bootstrap(vec![boot_ep]);
        }
        let app: Box<dyn VirtualApp> = match i {
            F4 => Box::new(
                TtcpApp::sender(VIPS[V1], TTCP_PORT, p.ttcp_bytes).with_start_delay(WARMUP),
            ),
            V1 => Box::new(TtcpApp::receiver(TTCP_PORT)),
            F2 => Box::<Pinger>::default(),
            _ => Box::new(NullApp),
        };
        ipopw::install(&mut net, h, cfg, app, Layer::Setup);
    }
    let mut sim = NetworkSim::new(net);
    run_for(&mut sim, WARMUP);
    let connected = hosts
        .iter()
        .all(|&h| agent(&sim, h).is_some_and(|a| a.inner().is_connected()));
    r.check(connected, || "overlay did not form during set-up".into());
    let before = ipopw::snapshot(&sim);
    meter.setup_done();

    // ---- phase A: ttcp F4 -> V1 beside pings F2 -> V1.
    let (f2, f4, v1) = (hosts[F2], hosts[F4], hosts[V1]);
    let a_start = sim.now();
    // The ttcp sender starts now; the pings once it has left slow start.
    run_for(&mut sim, PING_DELAY);
    agent_mut(&mut sim, f2)
        .and_then(|a| a.app_mut::<Pinger>())
        .expect("F2 runs the pinger")
        .plan(vec![VIPS[V1]], p.pings, p.ping_interval);
    let done = |sim: &NetworkSim| {
        agent(sim, f4)
            .and_then(|a| a.app::<TtcpApp>())
            .is_some_and(|t| t.finished())
            && agent(sim, f2)
                .and_then(|a| a.app::<Pinger>())
                .is_some_and(|t| t.finished())
    };
    while !done(&sim) && sim.now() < a_start + DEADLINE {
        run_for(&mut sim, STEP * 20);
    }
    let report = agent(&sim, f4)
        .and_then(|a| a.app::<TtcpApp>())
        .map(|t| t.report())
        .unwrap_or_default();
    let received = agent(&sim, v1)
        .and_then(|a| a.app::<TtcpApp>())
        .map_or(0, |t| t.received());
    let pinger = agent(&sim, f2)
        .and_then(|a| a.app::<Pinger>())
        .expect("F2 runs the pinger");
    let rtts: Vec<f64> = pinger.rtts_ms.iter().map(|&(_, ms)| ms).collect();
    let unanswered = p.pings - rtts.len() as u32;
    r.ops(1, u64::from(report.bytes != p.ttcp_bytes));
    r.ops(u64::from(p.pings), u64::from(unanswered));
    r.check(received == p.ttcp_bytes, || {
        format!(
            "ttcp receiver got {received} bytes, sender was given {}",
            p.ttcp_bytes
        )
    });
    r.check(unanswered == 0 && pinger.strays == 0, || {
        format!(
            "{} of {} pings answered, {} strays",
            rtts.len(),
            p.pings,
            pinger.strays
        )
    });
    let bottleneck_kbps = ipopw::bottleneck_bytes_per_s(sim.net(), f4, v1) / 1000.0;
    r.check(report.kbps > 0.0 && report.kbps <= bottleneck_kbps, || {
        format!(
            "ttcp goodput {:.1} KB/s outside (0, {bottleneck_kbps:.1}]",
            report.kbps
        )
    });
    let min_rtt_ms = 2.0 * ipopw::propagation(sim.net(), f2, v1).as_millis_f64();
    let below = rtts.iter().filter(|&&x| x < min_rtt_ms).count();
    r.check(below == 0, || {
        format!("{below} ping RTTs below twice the propagation delay {min_rtt_ms:.3} ms")
    });

    // ---- phase B: a virtual stream of seeded bytes F4 -> V1 under loss.
    let mut rng = StreamRng::new(seed, "perfbench.wan_bulk.stream");
    let data: Vec<u8> = (0..p.stream_bytes).map(|_| rng.next_u64() as u8).collect();
    let want = digest(&data);
    sim.net_mut()
        .set_default_impairment(LinkImpairment::none().with_loss(p.loss));
    let v1_addr = agent(&sim, v1)
        .expect("V1 runs IPOP")
        .inner()
        .overlay_address();
    let b_start = sim.now();
    let stream = agent_mut(&mut sim, f4).expect("F4 runs IPOP").call(|n| {
        let s = n.stream_connect(b_start, v1_addr);
        n.stream_send(b_start, s, data).then_some(s)
    });
    let mut got: Vec<u8> = Vec::with_capacity(p.stream_bytes);
    let mut inbound = None;
    let mut b_end = b_start;
    while stream.is_some() && got.len() < p.stream_bytes && sim.now() < b_start + DEADLINE {
        run_for(&mut sim, STEP);
        let rx = agent_mut(&mut sim, v1).expect("V1 runs IPOP");
        if inbound.is_none() {
            inbound = rx.call(|n| n.stream_accept());
        }
        if let Some(s) = inbound {
            got.extend(rx.call(|n| n.take_stream_data(s)));
        }
        b_end = sim.now();
    }
    if let Some(s) = stream {
        let now = sim.now();
        agent_mut(&mut sim, f4)
            .expect("F4 runs IPOP")
            .call(|n| n.stream_close(now, s));
    }
    let stream_ok = got.len() == p.stream_bytes && digest(&got) == want;
    r.ops(1, u64::from(!stream_ok));
    r.check(stream_ok, || {
        format!(
            "stream delivered {} of {} bytes, digest match {}",
            got.len(),
            p.stream_bytes,
            digest(&got) == want
        )
    });
    let stream_s = b_end.saturating_since(b_start).as_secs_f64();
    let stream_kbps = ratio(p.stream_bytes as f64 / 1000.0, stream_s);
    r.check(stream_kbps <= bottleneck_kbps, || {
        format!("stream goodput {stream_kbps:.1} KB/s above the bottleneck {bottleneck_kbps:.1}")
    });

    let after = ipopw::snapshot(&sim);
    let mut d = ipopw::delta(&before, &after);
    r.check(d["netsim.impair_dropped"] > 0.0, || {
        "phase B dropped no packets".into()
    });
    d.insert("ttcp_kbps", report.kbps);
    d.insert("stream_kbps", stream_kbps);
    d.insert("latency_ms", quantile(&rtts, 0.5));
    d.insert("latency_p99_ms", quantile(&rtts, 0.99));
    d.insert("op_s", report.seconds);
    d.insert(
        "virtual_s",
        sim.now().saturating_since(SimTime::ZERO).as_secs_f64(),
    );
    let (packets, events) = (d["core.packets"], d["simcore.events"]);
    r.det = d;
    meter.finish(&mut r, packets, events);
    r
}

/// 64-bit FNV-1a of `bytes`, computed by the benchmark itself.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}
