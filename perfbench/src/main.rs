//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]`
//!
//! Runs rounds of one workload (set-up, measured phase, checks) for `S`
//! seconds, with the reference loop of [`perfbench::calib`] before the first
//! round and after each one, then prints one JSON line: whether every check
//! held, the operations attempted and failed, and the metrics — the
//! end-to-end ones with `--trace 0`, the per-layer ones with `--trace 1`. A
//! traced run writes the first round's spans to `PATH` as CSV.

use std::process::ExitCode;
use std::time::Instant;

use perfbench::metrics::{self, render, END_TO_END, PER_LAYER};
use perfbench::round::Round;
use perfbench::{calib, layers};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn parse() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} outside (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            "--spans" => spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        spans,
    })
}

/// `struct rusage` of 64-bit Linux: two `timeval`s, then 14 `long`s of which
/// the first is `ru_maxrss` in KiB.
#[repr(C)]
struct RUsage {
    times: [i64; 4],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Peak resident set size of this process, in MiB; 0 if the C library
/// cannot report it.
fn peak_rss_mb() -> f64 {
    const RUSAGE_SELF: i32 = 0;
    let mut usage = RUsage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value with the layout of this
    // platform's `struct rusage`, and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !perfbench::WORKLOADS.contains(&args.workload.as_str()) {
        eprintln!(
            "perfbench: unknown workload {} (expected one of {:?})",
            args.workload,
            perfbench::WORKLOADS
        );
        return ExitCode::from(2);
    }
    layers::set_tracing(args.trace);
    let started = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut spans = Vec::new();
    // The reference loop runs before the first round and after every round;
    // a round's `ref_s` is the mean of the two runs beside it.
    let mut ref_before = calib::reference_s();
    let mut round_s = 0.0;
    // A round starts only if one as long as the last still ends in time.
    while rounds.is_empty() || started.elapsed().as_secs_f64() + round_s <= args.seconds {
        let t = Instant::now();
        let seed = perfbench::draw_seed(args.seed, rounds.len());
        let mut r =
            perfbench::run_round(&args.workload, seed, true).expect("workload name checked above");
        let ref_after = calib::reference_s();
        r.ref_s = (ref_before + ref_after) / 2.0;
        ref_before = ref_after;
        round_s = t.elapsed().as_secs_f64();
        if spans.is_empty() {
            spans = std::mem::take(&mut r.spans);
        }
        r.spans = Vec::new();
        eprintln!(
            "round {} (seed {seed}) at {:.3} s: setup {:.4} s, run {:.4} s, \
             reference {:.4} s, {} errors",
            rounds.len() + 1,
            started.elapsed().as_secs_f64(),
            r.setup_s,
            r.run_s,
            r.ref_s,
            r.errors.len()
        );
        rounds.push(r);
    }

    let draws = rounds.len().min(perfbench::DRAWS);
    let mut errors: Vec<String> = rounds[..draws]
        .iter()
        .enumerate()
        .flat_map(|(i, r)| {
            r.errors
                .iter()
                .map(move |e| format!("round {}: {e}", i + 1))
        })
        .collect();
    for (i, r) in rounds.iter().enumerate().skip(draws) {
        let first = &rounds[i % draws];
        let diff: Vec<&str> = first
            .det
            .iter()
            .filter(|&(k, v)| r.det.get(k).map(|x| x.to_bits()) != Some(v.to_bits()))
            .map(|(k, _)| *k)
            .collect();
        if !diff.is_empty() || r.attempted != first.attempted || r.failed != first.failed {
            errors.push(format!(
                "round {} repeated round {} differently: {diff:?}",
                i + 1,
                i % draws + 1
            ));
        }
    }
    let first = &rounds[0];
    for e in &errors {
        eprintln!("check failed: {e}");
    }
    for (k, v) in &first.det {
        eprintln!("  {k} = {v}");
    }
    let attempted = rounds.iter().map(|r| r.attempted).sum::<u64>().max(1);
    let failed = rounds.iter().map(|r| r.failed).sum::<u64>();
    let correct = errors.is_empty();

    let line = if args.trace {
        if let Some(path) = &args.spans {
            if let Err(e) = layers::write_spans(std::path::Path::new(path), &spans) {
                eprintln!("perfbench: writing spans to {path}: {e}");
                return ExitCode::from(1);
            }
            eprintln!("wrote {} spans to {path}", spans.len());
        }
        render(
            correct,
            attempted,
            failed,
            PER_LAYER,
            &metrics::per_layer(&rounds),
        )
    } else {
        let values = metrics::end_to_end(&rounds, peak_rss_mb());
        render(correct, attempted, failed, END_TO_END, &values)
    };
    println!("{line}");
    ExitCode::SUCCESS
}
