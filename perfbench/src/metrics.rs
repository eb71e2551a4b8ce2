//! The metrics the benchmark prints, and how a run's rounds become them.
//!
//! Every workload prints every metric: the end-to-end ones from an untraced
//! run, the per-layer ones from a traced run. A per-layer count that a
//! workload does not exercise reads 0 (for example `shard.slices` outside
//! `ring_10k`).

use crate::ipopw::Counts;
use crate::layers::Layer;
use crate::round::{median, ratio, Round};

/// `(name, unit, better)` of a printed metric.
pub type Spec = (&'static str, &'static str, &'static str);

/// End-to-end metrics. The three virtual-time ones name each workload's own
/// outcome; see the README for what they stand for on each workload.
pub const END_TO_END: &[Spec] = &[
    ("setup_s", "s", "lower"),
    ("run_rel", "ref", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("latency_ms", "ms", "lower"),
    ("latency_p99_ms", "ms", "lower"),
    ("op_s", "s", "lower"),
];

/// Per-layer metrics, printed by traced runs.
pub const PER_LAYER: &[Spec] = &[
    // The workloads' own paper outcomes (virtual time).
    ("ttcp_kbps", "KB/s", "higher"),
    ("stream_kbps", "KB/s", "higher"),
    ("bind_s", "s", "lower"),
    ("ping_rtt_ms", "ms", "lower"),
    ("ping_rtt_p99_ms", "ms", "lower"),
    ("route_hops", "hops", "lower"),
    ("fanout_ms", "ms", "lower"),
    ("fanout_p99_ms", "ms", "lower"),
    // simcore and the shard engine.
    ("simcore.events", "count", "lower"),
    ("simcore.engine_s", "s", "lower"),
    ("simcore.ns_per_event", "ns", "lower"),
    ("shard.slices", "count", "lower"),
    ("shard.cross_msgs", "count", "lower"),
    ("shard.barrier_s", "s", "lower"),
    ("shard.handler_s", "s", "lower"),
    // netsim.
    ("netsim.delivered", "count", "lower"),
    ("netsim.tx_bytes", "B", "lower"),
    ("netsim.impair_dropped", "count", "lower"),
    ("netsim.link_dropped", "count", "lower"),
    // core, with the netstack and packet code it runs.
    ("core.busy_s", "s", "lower"),
    ("core.calls", "count", "lower"),
    ("core.ns_per_packet", "ns", "lower"),
    ("core.tunneled_tx", "count", "lower"),
    ("core.tunneled_rx", "count", "lower"),
    ("core.arp_queries", "count", "lower"),
    // apps.
    ("apps.busy_s", "s", "lower"),
    // overlay.
    ("overlay.busy_s", "s", "lower"),
    ("overlay.ns_per_msg", "ns", "lower"),
    ("overlay.link_tx", "count", "lower"),
    ("overlay.link_rx", "count", "lower"),
    ("overlay.forwarded", "count", "lower"),
    ("overlay.delivered", "count", "higher"),
    ("overlay.dropped", "count", "lower"),
    ("overlay.shortcuts", "count", "higher"),
    ("overlay.link_probes_sent", "count", "lower"),
    ("overlay.dead_edges_detected", "count", "lower"),
    ("overlay.dht_quorum_writes", "count", "lower"),
    ("overlay.dht_quorum_write_timeouts", "count", "lower"),
    ("overlay.dht_quorum_reads", "count", "lower"),
    ("overlay.dht_quorum_read_timeouts", "count", "lower"),
    ("overlay.dht_read_repairs", "count", "lower"),
    ("overlay.dht_sync_digests", "count", "lower"),
    ("overlay.dht_sync_pulls", "count", "lower"),
    ("overlay.dht_leases_lost", "count", "lower"),
    ("overlay.pubsub_fanout_sent", "count", "lower"),
    ("overlay.pubsub_relayed", "count", "lower"),
    ("overlay.pubsub_salvaged", "count", "lower"),
    ("overlay.stream_data_sent", "count", "lower"),
    ("overlay.stream_retransmits", "count", "lower"),
    ("overlay.stream_useful_ratio", "ratio", "higher"),
    // services.
    ("services.dhcp_collisions", "count", "lower"),
    ("services.bind_duplicates", "count", "lower"),
    // Heap allocations, counted by the benchmark's global allocator.
    ("alloc.count", "count", "lower"),
    ("alloc.per_packet", "count", "lower"),
    ("alloc.per_event", "count", "lower"),
    ("alloc.in_agent", "count", "lower"),
    ("alloc.in_engine", "count", "lower"),
    ("alloc.peak_live_mb", "MiB", "lower"),
    // Self time of the set-up calls, and the traced run's own wall times.
    ("setup.busy_s", "s", "lower"),
    ("trace.setup_s", "s", "lower"),
    ("trace.run_s", "s", "lower"),
];

/// The end-to-end values of an untraced run.
pub fn end_to_end(rounds: &[Round], peak_rss_mb: f64) -> Counts {
    let det = &rounds[0].det;
    let mut m = Counts::new();
    m.insert("setup_s", median_of(rounds, |r| r.setup_s));
    m.insert("run_rel", run_rel(rounds));
    m.insert("peak_rss_mb", peak_rss_mb);
    for k in ["latency_ms", "latency_p99_ms", "op_s"] {
        m.insert(k, det.get(k).copied().unwrap_or(0.0));
    }
    m
}

/// The measured phase's wall time over the reference loop's, summed over the
/// rounds of each input draw, then averaged over the draws so that each
/// counts once however many rounds it got.
pub fn run_rel(rounds: &[Round]) -> f64 {
    let draws = rounds.len().min(crate::DRAWS);
    let per_draw = (0..draws).map(|d| {
        let of_draw = || rounds.iter().skip(d).step_by(draws);
        ratio(
            of_draw().map(|r| r.run_s).sum(),
            of_draw().map(|r| r.ref_s).sum(),
        )
    });
    per_draw.sum::<f64>() / draws.max(1) as f64
}

/// The per-layer values of a traced run: counts from the first round (every
/// round of its draw repeats them), self times as medians over the rounds.
pub fn per_layer(rounds: &[Round]) -> Counts {
    let det = &rounds[0].det;
    let get = |k: &str| det.get(k).copied().unwrap_or(0.0);
    let own = |l: Layer| median_of(rounds, |r| r.self_s.map_or(0.0, |s| s[l as usize]));
    let mut m: Counts = PER_LAYER.iter().map(|&(k, _, _)| (k, get(k))).collect();
    let events = get("simcore.events");
    let engine = own(Layer::Engine);
    let barrier = own(Layer::Barrier);
    let core = own(Layer::Agent);
    let overlay = own(Layer::Overlay);
    m.insert("simcore.engine_s", engine);
    m.insert(
        "simcore.ns_per_event",
        ratio((engine + barrier) * 1e9, events),
    );
    m.insert("shard.barrier_s", barrier);
    m.insert("shard.handler_s", own(Layer::Handler));
    m.insert("core.busy_s", core);
    m.insert("core.ns_per_packet", ratio(core * 1e9, get("core.packets")));
    m.insert("apps.busy_s", own(Layer::App));
    m.insert("overlay.busy_s", overlay);
    m.insert(
        "overlay.ns_per_msg",
        ratio(overlay * 1e9, get("overlay.link_rx")),
    );
    m.insert(
        "overlay.stream_useful_ratio",
        ratio(
            get("overlay.stream_data_received"),
            get("overlay.stream_data_sent") + get("overlay.stream_retransmits"),
        ),
    );
    m.insert("setup.busy_s", own(Layer::Setup));
    m.insert("trace.setup_s", median_of(rounds, |r| r.setup_s));
    m.insert("trace.run_s", median_of(rounds, |r| r.run_s));
    m
}

/// The result line: `correct`, `attempted`, `failed` and every metric of
/// `specs` with its unit (0 for a value not measured).
pub fn render(
    correct: bool,
    attempted: u64,
    failed: u64,
    specs: &[Spec],
    values: &Counts,
) -> String {
    let metrics: Vec<String> = specs
        .iter()
        .map(|&(name, unit, _)| {
            let v = values
                .get(name)
                .copied()
                .filter(|v| v.is_finite())
                .unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

fn median_of(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(f).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timed(run_s: f64, ref_s: f64) -> Round {
        Round {
            run_s,
            ref_s,
            ..Round::default()
        }
    }

    #[test]
    fn run_rel_counts_each_draw_once() {
        // Draw 0 ran twice (ratios 10 and 20, pooled 5.0 / 0.3), draws 1-3 once.
        let rounds = [
            timed(1.0, 0.1),
            timed(2.0, 0.1),
            timed(3.0, 0.1),
            timed(4.0, 0.1),
            timed(4.0, 0.2),
        ];
        let want = (5.0 / 0.3 + 20.0 + 30.0 + 40.0) / 4.0;
        assert!((run_rel(&rounds) - want).abs() < 1e-9);
        assert!((run_rel(&rounds[..1]) - 10.0).abs() < 1e-9);
        assert_eq!(crate::draw_seed(3, 0), 12);
        assert_eq!(crate::draw_seed(3, 5), 13);
    }
}
