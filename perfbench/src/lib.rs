//! End-to-end and per-layer benchmark of the IPOP reproduction.
//!
//! Three workloads, each run in its own process by `run.py`:
//!
//! * [`wan_bulk`] — the data plane: ttcp and a virtual stream on the Fig. 4
//!   testbed;
//! * [`plab_selfconfig`](plab) — the control plane: dynamic joins, a crash,
//!   name service, Brunet-ARP and pings on a Planet-Lab-like WAN;
//! * [`ring_10k`](ring) — overlay routing and pub/sub fan-out on a
//!   10 000-node ring under the sharded simulator.
//!
//! A workload runs in rounds: set-up, measured phase, checks. A run cycles
//! through [`DRAWS`] input draws of its seed; every round of one draw repeats
//! the same virtual history, so its counts and virtual-time outcomes must
//! match exactly.

pub mod calib;
pub mod ipopw;
pub mod layers;
pub mod metrics;
pub mod pinger;
pub mod plab;
pub mod ring;
pub mod round;
pub mod wan_bulk;

/// Counting allocator for every binary and test of this package.
#[global_allocator]
static ALLOC: layers::CountingAlloc = layers::CountingAlloc;

/// Input draws per run. Round `i` of a run with seed `n` runs the workload
/// on seed [`draw_seed`]`(n, i)`, so the rounds cycle through `DRAWS` draws
/// of the seeded inputs and a run's wall time is not one draw's.
pub const DRAWS: usize = 4;

/// The seed of round `round` of a run with seed `seed`.
pub fn draw_seed(seed: u64, round: usize) -> u64 {
    seed.wrapping_mul(DRAWS as u64)
        .wrapping_add((round % DRAWS) as u64)
}

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["wan_bulk", "plab_selfconfig", "ring_10k"];

/// Run one round of `workload` at the benchmark's size (`full`) or the
/// reduced size the tests use.
pub fn run_round(workload: &str, seed: u64, full: bool) -> Option<round::Round> {
    Some(match (workload, full) {
        ("wan_bulk", true) => wan_bulk::round(seed, &wan_bulk::Params::full()),
        ("wan_bulk", false) => wan_bulk::round(seed, &wan_bulk::Params::small()),
        ("plab_selfconfig", true) => plab::round(seed, &plab::Params::full()),
        ("plab_selfconfig", false) => plab::round(seed, &plab::Params::small()),
        ("ring_10k", true) => ring::round(seed, &ring::Params::full()),
        ("ring_10k", false) => ring::round(seed, &ring::Params::small()),
        _ => return None,
    })
}
