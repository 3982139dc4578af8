//! Determinism self-check: the exact counts the benchmark reports must
//! repeat for a seed, and every oracle must pass for another seed.

use bamboo_benchmark::stats::Metric;
use bamboo_benchmark::synth::{self, Pass, EXACT_ROUNDS};
use bamboo_benchmark::workload::GATED;

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} reported"))
        .value
}

#[test]
fn synthesis_counts_repeat_for_a_seed_and_oracles_pass_for_another() {
    let jobs = EXACT_ROUNDS * synth::programs().len();
    let a = Pass::run(7, 0.0, jobs, None);
    let b = Pass::run(7, 0.0, jobs, None);
    assert_eq!(a.jobs.len(), jobs);
    assert_eq!(a.failed(), 0, "an oracle failed for seed 7");
    assert_eq!(a.dsa_counts(), b.dsa_counts());
    assert_eq!(a.speedup_gmean().to_bits(), b.speedup_gmean().to_bits());
    assert_eq!(
        a.estimate_err_pct().to_bits(),
        b.estimate_err_pct().to_bits()
    );

    let other = Pass::run(8, 0.0, jobs, None);
    assert_eq!(other.failed(), 0, "an oracle failed for seed 8");
    assert_ne!(
        a.dsa_counts(),
        other.dsa_counts(),
        "the seed reaches the annealer"
    );
}

#[test]
fn serving_counts_repeat_for_a_seed_and_oracles_pass_for_another() {
    let exact = [
        "schedule.dsa.simulations",
        "schedule.dsa.candidates",
        "schedule.dsa.iterations",
        "schedule.dsa.cache_hit_ratio",
        "schedule.dsa.accept_ratio",
        "schedule.estimate_err_pct",
        "threaded.invocations_per_req",
        "threaded.retained_objects_per_req",
    ];
    let run =
        |seed| bamboo_benchmark::run("serve-kmeans", seed, 1.0, true).expect("known workload");
    let a = run(3);
    let b = run(3);
    for outcome in [&a, &b] {
        assert!(
            outcome.correct(),
            "{} of {} failed",
            outcome.failed,
            outcome.attempted
        );
    }
    for name in exact {
        assert_eq!(
            value(&a.per_layer, name).to_bits(),
            value(&b.per_layer, name).to_bits(),
            "{name}"
        );
    }
    assert_eq!(value(&a.per_layer, "threaded.invocations_per_req"), 37.0);
    assert_eq!(
        value(&a.end_to_end, "layout_speedup_gmean").to_bits(),
        value(&b.end_to_end, "layout_speedup_gmean").to_bits()
    );

    let other = run(4);
    assert!(
        other.correct(),
        "{} of {} failed",
        other.failed,
        other.attempted
    );
}

#[test]
fn result_line_carries_every_metric_of_its_mode() {
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let listed = std::fs::read_to_string(manifest).expect("BENCHMARK.json");
    let outcome = bamboo_benchmark::run("serve-fractal", 1, 1.0, true).expect("known workload");
    assert!(outcome.correct());
    let gated: Vec<&str> = GATED.to_vec();
    let layers: Vec<&str> = outcome.per_layer.iter().map(|m| m.name).collect();
    for (traced, names) in [(false, gated), (true, layers)] {
        let line = outcome.json_line(traced);
        assert!(line.starts_with(r#"{"correct": true, "attempted": "#));
        assert_eq!(line.matches(r#"{"value": "#).count(), names.len(), "{line}");
        for name in names {
            assert!(
                line.contains(&format!(r#""{name}": {{"value": "#)),
                "{line}"
            );
            assert!(
                listed.contains(&format!(r#"{{"name": "{name}", "#)),
                "{name} is not in BENCHMARK.json"
            );
        }
    }
    assert!(outcome.spans.as_ref().is_some_and(|s| !s.is_empty()));
}
