//! Times the `ring_10k` measured phase with the shards run in turn and fanned
//! out over threads, alternating the two, and checks that both give one
//! history.
//!
//!     cargo run --release --offline --manifest-path perfbench/Cargo.toml \
//!         --example shards -- [ROUNDS]

use perfbench::ring::{self, Params};
use perfbench::round::{median, quantile};

fn main() {
    let rounds: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(6);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut times = [Vec::new(), Vec::new()];
    let mut hashes = [None, None];
    for i in 0..rounds {
        for parallel in [i % 2 == 1, i % 2 == 0] {
            let run = ring::run(
                1,
                &Params {
                    parallel,
                    ..Params::full()
                },
            );
            assert!(run.round.errors.is_empty(), "{:?}", run.round.errors);
            let k = usize::from(parallel);
            assert!(hashes[k].is_none_or(|h| h == run.trace_hash));
            hashes[k] = Some(run.trace_hash);
            times[k].push(run.round.run_s);
        }
    }
    assert_eq!(
        hashes[0], hashes[1],
        "sequential and parallel histories differ"
    );
    println!(
        "available parallelism {threads}, trace hash {:#018x}",
        hashes[0].unwrap_or(0)
    );
    for (k, name) in [(0, "sequential"), (1, "parallel")] {
        let t = &times[k];
        let (q1, med, q3) = (quantile(t, 0.25), median(t), quantile(t, 0.75));
        println!(
            "{name:>10}: run_s median {med:.3} s, quartiles {q1:.3}-{q3:.3} s \
             (spread {:.1} % of the median) over {} rounds",
            100.0 * (q3 - q1) / med,
            t.len()
        );
    }
}
