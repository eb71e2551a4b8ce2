//! The benchmark's own tests, on reduced sizes.

use perfbench::metrics::{render, Spec, END_TO_END, PER_LAYER};
use perfbench::round::Round;
use perfbench::{ring, run_round, WORKLOADS};

fn small(workload: &str, seed: u64) -> Round {
    run_round(workload, seed, false).expect("known workload")
}

#[test]
fn each_workload_passes_its_checks() {
    for w in WORKLOADS {
        let r = small(w, 7);
        assert!(r.errors.is_empty(), "{w}: {:?}", r.errors);
        assert_eq!(r.failed, 0, "{w}");
        assert!(r.attempted > 0, "{w}");
        for k in ["latency_ms", "latency_p99_ms", "op_s"] {
            assert!(r.det[k] > 0.0, "{w}: {k} = {}", r.det[k]);
        }
    }
}

#[test]
fn one_seed_repeats_every_deterministic_field() {
    for w in WORKLOADS {
        let (a, b) = (small(w, 11), small(w, 11));
        assert_eq!(a.attempted, b.attempted, "{w}");
        assert_eq!(a.failed, b.failed, "{w}");
        assert_eq!(a.det.len(), b.det.len(), "{w}");
        for (k, v) in &a.det {
            assert_eq!(
                v.to_bits(),
                b.det[k].to_bits(),
                "{w}: {k} {v} vs {}",
                b.det[k]
            );
        }
    }
}

#[test]
fn sequential_and_parallel_shards_give_one_history() {
    let seq = ring::Params::small();
    let par = ring::Params {
        parallel: true,
        ..ring::Params::small()
    };
    let (a, b) = (ring::run(3, &seq), ring::run(3, &par));
    assert_eq!(a.trace_hash, b.trace_hash);
    assert!(a.round.errors.is_empty() && b.round.errors.is_empty());
    // Allocation counts are per thread, so only the simulated history is
    // compared.
    for (k, v) in a.round.det.iter().filter(|(k, _)| !k.starts_with("alloc.")) {
        assert_eq!(v.to_bits(), b.round.det[k].to_bits(), "{k}");
    }
}

/// `(name, unit, better)` of every metric object in one section of
/// BENCHMARK.json, which lists one metric object per line.
fn section(json: &str, key: &str) -> Vec<(String, String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("section present");
    let body = &json[start..];
    let end = body.find(']').expect("section closes");
    let field = |line: &str, name: &str| {
        let at = line.find(&format!("\"{name}\": \""))? + name.len() + 5;
        Some(line[at..].split('"').next()?.to_string())
    };
    body[..end]
        .lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?, field(l, "better")?)))
        .collect()
}

fn owned(specs: &[Spec]) -> Vec<(String, String, String)> {
    specs
        .iter()
        .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
        .collect()
}

#[test]
fn printed_metrics_are_those_of_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    assert_eq!(section(&json, "end_to_end"), owned(END_TO_END));
    assert_eq!(section(&json, "per_layer"), owned(PER_LAYER));
    let workloads: Vec<String> = json
        .lines()
        .filter(|l| l.contains("\"why\""))
        .filter_map(|l| l.split('"').nth(3).map(str::to_string))
        .collect();
    assert_eq!(workloads, WORKLOADS);

    // The result line names exactly those metrics, each with its unit.
    for specs in [END_TO_END, PER_LAYER] {
        let line = render(true, 1, 0, specs, &Default::default());
        let printed: Vec<&str> = line
            .split("\": {\"value\"")
            .filter_map(|s| s.rsplit('"').next())
            .collect();
        let names: Vec<&str> = specs.iter().map(|s| s.0).collect();
        assert_eq!(printed[..printed.len() - 1], names[..]);
    }
}
