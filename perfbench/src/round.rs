//! One round of a workload: a set-up, a measured phase and the checks, with
//! the layer accounting around them.

use crate::ipopw::Counts;
use crate::layers::{self, Layer, Span, LAYERS};

/// What one round measured.
#[derive(Clone, Debug, Default)]
pub struct Round {
    /// Wall seconds of the set-up.
    pub setup_s: f64,
    /// Wall seconds of the measured phase.
    pub run_s: f64,
    /// Wall seconds of the reference loop run beside this round (see
    /// [`crate::calib`]); filled in by the caller.
    pub ref_s: f64,
    /// Deterministic outcomes and counts of the measured phase: virtual-time
    /// results, program counters and allocation counts. Identical in every
    /// round of one seed.
    pub det: Counts,
    /// Operations the measured phase attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Failed correctness checks, empty when the round is correct.
    pub errors: Vec<String>,
    /// Self seconds per layer over the measured phase, and of the set-up
    /// calls at `Layer::Setup` (traced rounds only).
    pub self_s: Option<[f64; LAYERS]>,
    /// The spans kept during the round (traced rounds only).
    pub spans: Vec<Span>,
}

impl Round {
    /// Record a check: `ok` or the failure `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Count `n` operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }
}

/// Timing and allocation bookkeeping of one round; call [`Meter::setup_done`]
/// when the world is ready and [`Meter::finish`] after the measured phase.
pub struct Meter {
    t0: u64,
    t_run: u64,
    /// Live heap bytes when the round started.
    live0: i64,
    self0: [u64; LAYERS],
    self_run: [u64; LAYERS],
    allocs_run: [u64; LAYERS],
}

impl Meter {
    /// Start a round.
    pub fn start() -> Meter {
        let _ = layers::take_spans();
        let live0 = layers::reset_peak_live();
        let self0 = layers::self_ns();
        let t0 = layers::now_ns();
        Meter {
            t0,
            t_run: t0,
            live0,
            self0,
            self_run: self0,
            allocs_run: layers::alloc_counts(),
        }
    }

    /// The set-up is over: the measured phase starts now.
    pub fn setup_done(&mut self) {
        self.self_run = layers::self_ns();
        self.allocs_run = layers::alloc_counts();
        self.t_run = layers::now_ns();
    }

    /// The measured phase is over: fill timings, allocation counts and (when
    /// tracing) self times into `round`. `packets` and `events` are the
    /// measured phase's agent packets and simulator events.
    pub fn finish(self, round: &mut Round, packets: f64, events: f64) {
        let t_end = layers::now_ns();
        let allocs = layers::alloc_counts();
        round.setup_s = (self.t_run - self.t0) as f64 * 1e-9;
        round.run_s = (t_end - self.t_run) as f64 * 1e-9;
        let a = |l: Layer| (allocs[l as usize] - self.allocs_run[l as usize]) as f64;
        let in_agent = a(Layer::Agent) + a(Layer::App) + a(Layer::Overlay);
        let in_engine = a(Layer::Engine) + a(Layer::Barrier) + a(Layer::Handler);
        let total = in_agent + in_engine + a(Layer::Setup);
        let det = &mut round.det;
        det.insert("alloc.count", total);
        det.insert("alloc.in_agent", in_agent);
        det.insert("alloc.in_engine", in_engine);
        det.insert("alloc.per_packet", ratio(total, packets));
        det.insert("alloc.per_event", ratio(total, events));
        det.insert(
            "alloc.peak_live_mb",
            (layers::peak_live_bytes() - self.live0) as f64 / (1024.0 * 1024.0),
        );
        if layers::tracing() {
            let end = layers::self_ns();
            let mut own: [f64; LAYERS] =
                std::array::from_fn(|i| (end[i] - self.self_run[i]) as f64 * 1e-9);
            let setup = Layer::Setup as usize;
            own[setup] = (end[setup] - self.self0[setup]) as f64 * 1e-9;
            round.self_s = Some(own);
            round.spans = layers::take_spans();
        }
    }
}

/// `num / den`, 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Value at quantile `q` of `xs` (nearest rank on the sorted sample); 0 for
/// an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `xs`, averaging the middle pair of an even sample.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_and_medians() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
