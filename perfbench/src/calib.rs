//! The reference loop: a fixed piece of work, independent of the program,
//! timed beside every round to tell how fast the machine runs at the moment.
//!
//! Identical work on a shared virtual machine runs at speeds that drift by
//! tens of per cent over minutes, and the drift moves a whole run. `run_rel`
//! divides the measured phase's wall time by the reference loop's, which
//! runs on the same thread between the rounds, so the drift cancels while any
//! change in the program's own cost shows in full.
//!
//! The loop is shaped like the simulator's hot path: a small binary heap of
//! timers, four kinds of handler chosen per event, a small `BTreeMap` of
//! state, and short-lived packet-sized buffers hashed in four independent
//! lanes. It never calls the program.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// Timers popped per reference run (40-50 ms on a 2.1 GHz Xeon vCPU).
const EVENTS: u32 = 420_000;
/// Timers pending at once.
const PENDING: u32 = 256;
/// Keys of the state table.
const KEYS: u64 = 512;

/// Run the reference loop once and return its wall seconds.
pub fn reference_s() -> f64 {
    let t0 = Instant::now();
    black_box(reference_work(EVENTS));
    t0.elapsed().as_secs_f64()
}

/// The reference work: `events` timer pops; returns a digest so that nothing
/// is optimised away.
pub fn reference_work(events: u32) -> u64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut step = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    for node in 0..PENDING {
        heap.push(Reverse((step() % 10_000, node)));
    }
    let mut table: BTreeMap<u64, u64> = BTreeMap::new();
    let mut lanes = [0u64; 4];
    for i in 0..events {
        let Some(Reverse((at, node))) = heap.pop() else {
            break;
        };
        let r = step();
        let next = match node % 4 {
            0 => {
                *table.entry(r % KEYS).or_insert(0) += 1;
                at + 100 + r % 900
            }
            1 => {
                let v = table.get(&(r % KEYS)).copied().unwrap_or(0);
                at + 50 + (v + r) % 400
            }
            2 => {
                if i % 8 == 2 {
                    let len = 64 + (r % 256) as usize;
                    let buf: Vec<u8> = (0..len).map(|k| (k as u64 ^ r) as u8).collect();
                    for chunk in black_box(&buf).chunks(4) {
                        for (lane, &b) in lanes.iter_mut().zip(chunk) {
                            *lane = (*lane ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                        }
                    }
                }
                at + 10 + r % 100
            }
            _ => {
                table.remove(&(r % KEYS));
                at + 1000 + r % 5000
            }
        };
        heap.push(Reverse((next, node)));
    }
    lanes
        .iter()
        .fold(table.len() as u64, |acc, &lane| acc ^ lane)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_work_is_deterministic() {
        assert_eq!(reference_work(5_000), reference_work(5_000));
        assert!(reference_s() > 0.0);
    }
}
