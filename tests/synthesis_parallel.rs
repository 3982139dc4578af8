//! Determinism of parallel, memoized synthesis (paper §4.5 machinery).
//!
//! Candidate simulations inside the DSA annealer run on one simulation
//! pool per synthesis, which shares a batch with helper threads only
//! when they pay for their start, and simulations are memoized by
//! layout fingerprint — none of which may change what gets synthesized.
//! These tests pin the contract on real benchmarks: the same seed yields
//! the identical best layout, makespan, and [`DsaStats`] trajectory at
//! any thread count, with and without the simulation cache, and the
//! pool never runs more threads than asked for.
//!
//! [`DsaStats`]: bamboo::DsaStats

use bamboo::{DsaOptions, MachineDescription, SynthesisOptions, SynthesisResult};
use bamboo_apps::{by_name, Scale};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Synthesizes `bench` at `Scale::Small` for the paper's 62-core
/// machine with the given options, from a fixed seed.
fn synthesize(bench: &str, opts: &SynthesisOptions) -> SynthesisResult {
    synthesize_on(bench, &MachineDescription::tilepro64(), opts)
}

/// Synthesizes `bench` at `Scale::Small` for `machine`, from a fixed
/// seed.
fn synthesize_on(
    bench: &str,
    machine: &MachineDescription,
    opts: &SynthesisOptions,
) -> SynthesisResult {
    let bench = by_name(bench).expect("benchmark registered");
    let compiler = bench.compiler(Scale::Small);
    let (profile, _, ()) = compiler
        .profile_run(None, "t", |_| ())
        .expect("profile run");
    let mut rng = StdRng::seed_from_u64(4242);
    compiler.synthesize(&profile, machine, opts, &mut rng)
}

/// The thread-invariance table: the paper's 62-core shape and the
/// 2-core serving shape.
fn invariance_cases() -> Vec<(&'static str, MachineDescription, &'static [usize])> {
    vec![
        ("KMeans", MachineDescription::tilepro64(), &[4, 8]),
        ("FilterBank", MachineDescription::tilepro64(), &[4, 8]),
        ("KMeans", MachineDescription::n_cores(2), &[2, 4, 8]),
        ("Fractal", MachineDescription::n_cores(2), &[2, 4, 8]),
    ]
}

#[test]
fn same_seed_is_identical_at_any_thread_count() {
    for (name, machine, thread_counts) in invariance_cases() {
        let serial = synthesize_on(name, &machine, &SynthesisOptions::default().with_threads(1));
        let bench = format!("{name} on {} cores", machine.core_count());
        for &threads in thread_counts {
            let opts = SynthesisOptions::default().with_threads(threads);
            let parallel = synthesize_on(name, &machine, &opts);
            assert_eq!(
                parallel.layout, serial.layout,
                "{bench}: layout diverged at {threads} threads"
            );
            assert_eq!(
                parallel.estimate.makespan, serial.estimate.makespan,
                "{bench}: makespan diverged at {threads} threads"
            );
            assert_eq!(
                parallel.stats.trajectory, serial.stats.trajectory,
                "{bench}: search trajectory diverged at {threads} threads"
            );
            assert_eq!(
                parallel.stats, serial.stats,
                "{bench}: DSA statistics diverged at {threads} threads"
            );
            assert_eq!(
                parallel.replication, serial.replication,
                "{bench}: replication choice diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn memoization_does_not_change_what_is_synthesized() {
    for bench in ["KMeans", "FilterBank"] {
        let memoized = synthesize(bench, &SynthesisOptions::default());
        let cold = synthesize(
            bench,
            &SynthesisOptions {
                dsa: DsaOptions {
                    memoize: false,
                    ..DsaOptions::default()
                },
                ..SynthesisOptions::default()
            },
        );
        assert_eq!(memoized.layout, cold.layout, "{bench}: layout diverged");
        assert_eq!(
            memoized.estimate.makespan, cold.estimate.makespan,
            "{bench}: makespan diverged"
        );
        assert_eq!(
            memoized.stats.trajectory, cold.stats.trajectory,
            "{bench}: trajectory diverged"
        );
        // The cache trades simulations for replayed hits, one for one
        // (delta hits are the cache's cone-reuse variant).
        assert!(memoized.stats.cache_hits > 0, "{bench}: cache never hit");
        assert_eq!(
            memoized.stats.simulations + memoized.stats.cache_hits + memoized.stats.delta_hits,
            memoized.stats.candidates_evaluated,
            "{bench}: evaluation accounting broken"
        );
        assert_eq!(
            cold.stats.simulations, cold.stats.candidates_evaluated,
            "{bench}: cold run should simulate every candidate"
        );
        assert_eq!(
            cold.stats.delta_hits, 0,
            "{bench}: delta reuse requires the cache"
        );
    }
}

/// `threads` bounds the live simulation threads, the caller's included:
/// a synthesis starts at most `threads - 1` helpers, however many
/// replication variants it searches.
#[test]
fn helpers_never_exceed_the_thread_bound() {
    for (bench, machine, thread_counts) in invariance_cases() {
        for &threads in [1].iter().chain(thread_counts) {
            let result = synthesize_on(
                bench,
                &machine,
                &SynthesisOptions::default().with_threads(threads),
            );
            let pool = result.pool;
            assert!(
                pool.helpers_started < threads,
                "{bench}: {} helpers started at threads = {threads}",
                pool.helpers_started
            );
            assert!(
                pool.batches_fanned_out + pool.batches_inline >= 1,
                "{bench}: the pool recorded no batch"
            );
            if threads == 1 {
                assert_eq!(
                    pool.batches_fanned_out, 0,
                    "{bench}: fanned out at 1 thread"
                );
            }
        }
    }
}
