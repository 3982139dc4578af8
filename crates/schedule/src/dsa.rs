//! Directed simulated annealing (paper §4.5).
//!
//! Bamboo's optimizer mirrors what a developer does by hand: run the
//! (simulated) application, find the bottleneck on the critical path,
//! move work to fix it, repeat. Each iteration simulates the candidate
//! layouts, prunes them probabilistically (good layouts survive with high
//! probability, poor ones with low probability — the annealing part),
//! derives critical-path-directed move proposals for the survivors, and
//! materializes the moved layouts as the next candidate set. When an
//! iteration fails to improve the best layout, the search continues with
//! some probability (escaping local maxima) and otherwise stops.
//!
//! # Pooled, memoized evaluation
//!
//! Candidate evaluation — the expensive part — is a pure function of
//! `(spec, graph, layout, profile, machine)`: [`simulate`] consumes no
//! randomness. The optimizer exploits that twice:
//!
//! * each iteration's un-memoized candidates go to the search's
//!   simulation pool ([`crate::pool`]): the driver thread simulates every
//!   batch itself and shares it with parked helpers (at most
//!   [`DsaOptions::threads`] threads in all) only when the simulation
//!   time they would take off the driver exceeds the host's measured
//!   helper start cost. Results are collected back **in candidate index
//!   order**, so sorting, pruning, and [`DsaStats`] are bit-identical to
//!   a serial run;
//! * a [`SimCache`] keyed by [`Layout::fingerprint`] replays results for
//!   layouts whose signature was already simulated
//!   ([`DsaOptions::memoize`]), so survivors re-entering the pool never
//!   re-simulate.
//!
//! All randomness (pruning, move generation) stays on the single driver
//! thread, which is the determinism argument: the RNG consumption
//! sequence is independent of the worker count *and* of the cache (the
//! candidate pool is fingerprint-deduplicated either way), so one seed
//! produces one trajectory at any thread count.
//!
//! # Delta re-simulation ([`DsaEngine::Delta`])
//!
//! The default engine cuts per-candidate cost three ways, none of which
//! may change a single bit of the result (differentially tested against
//! [`DsaEngine::Reference`]):
//!
//! * **Arena engine.** Candidates score on reusable
//!   [`SimEngine`](crate::sim::SimEngine)s (one per pool thread) over a
//!   shared [`SimProgram`]: prediction streams, routing memos, and event
//!   arenas persist across the hundreds of simulations of one search
//!   instead of being rebuilt per candidate.
//! * **Idle-cone delta hits.** Every candidate is derived from a parent
//!   survivor by moving a known instance set. Each cached result carries
//!   a [`DeltaInfo`](crate::sim::DeltaInfo) journal of which instances
//!   ever homed an object; a
//!   child whose moved instances all sat outside that cone has *the same
//!   event timeline* as its parent — no invocation, transfer, or queue
//!   interaction can differ — so its result is synthesized from the
//!   parent's (only utilization's denominator, distinct cores used, is
//!   recomputed) without simulating at all.
//! * **Shared traces.** Results carry their execution trace behind an
//!   [`std::sync::Arc`], so the cache inserts, replays, and survivor
//!   copies that shuttle results around the search clone a pointer
//!   instead of thousands of trace tasks.

use crate::critpath::{apply_move, propose_moves, MoveProposal};
use crate::groups::GroupGraph;
use crate::layout::{InstanceId, Layout};
use crate::pool::{with_pool, PoolStats, SimPool};
use crate::sim::{simulate, CachedSim, SimCache, SimOptions, SimProgram, SimResult};
use bamboo_lang::spec::ProgramSpec;
use bamboo_machine::{CoreId, MachineDescription};
use bamboo_profile::{Cycles, Profile};
use rand::Rng;
use std::collections::HashSet;

/// Which evaluation engine scores candidates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DsaEngine {
    /// The reference simulator, one from-scratch run per candidate on
    /// the driver thread, whatever [`DsaOptions::threads`] says. The
    /// serial semantics oracle; also the honest A/B leg for benchmarks.
    Reference,
    /// The arena [`SimEngine`](crate::sim::SimEngine) with idle-cone
    /// delta reuse, on the search's simulation pool. Bit-identical
    /// results, several times faster.
    Delta,
}

/// DSA tuning knobs.
#[derive(Clone, Debug)]
pub struct DsaOptions {
    /// Hard cap on iterations.
    pub max_iterations: usize,
    /// Probability of keeping one of the better half of candidates.
    pub keep_best_probability: f64,
    /// Probability of keeping one of the worse half.
    pub keep_worse_probability: f64,
    /// Probability of continuing after a non-improving iteration.
    pub continue_probability: f64,
    /// Move proposals materialized per surviving layout per iteration.
    pub moves_per_layout: usize,
    /// Upper bound on live candidates per iteration.
    pub max_candidates: usize,
    /// Upper bound on live simulation threads, the caller's included:
    /// at most this many threads; small searches run on the caller's
    /// thread. `0` allows one per available core, `1` evaluates serially
    /// on the caller's thread. Helpers start only when a batch of
    /// simulations pays for them (see [`crate::pool`]). The result is
    /// bit-identical at any setting.
    pub threads: usize,
    /// Memoize simulation results across iterations by layout
    /// fingerprint, so survivors re-entering the pool never re-simulate.
    /// Off reproduces the evaluate-everything shape (the A/B baseline of
    /// the `dsa` bench harness) and also disables delta reuse (the
    /// journals live in the cache); the search trajectory is identical
    /// either way.
    pub memoize: bool,
    /// Candidate evaluation engine.
    pub engine: DsaEngine,
    /// Simulator configuration.
    pub sim: SimOptions,
}

impl Default for DsaOptions {
    fn default() -> Self {
        DsaOptions {
            max_iterations: 40,
            keep_best_probability: 0.95,
            keep_worse_probability: 0.10,
            continue_probability: 0.75,
            moves_per_layout: 10,
            max_candidates: 32,
            threads: 0,
            memoize: true,
            engine: DsaEngine::Delta,
            sim: SimOptions {
                collect_trace: true,
                ..SimOptions::default()
            },
        }
    }
}

/// Search statistics, reported alongside the winning layout.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DsaStats {
    /// Iterations executed.
    pub iterations: usize,
    /// Total scoring simulations run.
    pub simulations: usize,
    /// Candidates subjected to the probabilistic pruning step
    /// (`= simulations + cache_hits + delta_hits`).
    pub candidates_evaluated: usize,
    /// Candidates that survived pruning (summed over iterations).
    /// `survivors / candidates_evaluated` is the acceptance rate.
    pub survivors: usize,
    /// Evaluations answered by the memoized simulation cache instead of
    /// a fresh simulation.
    pub cache_hits: usize,
    /// Evaluations that ran a simulation and populated the cache. Equal
    /// to [`Self::simulations`]; kept separate so telemetry can report
    /// hit rate as `hits / (hits + misses)` uniformly.
    pub cache_misses: usize,
    /// Evaluations answered by idle-cone delta reuse: the candidate's
    /// moved instances all sat outside its parent's activity cone, so
    /// the parent's timeline was reused without simulating.
    pub delta_hits: usize,
    /// Cache entries evicted by the [`SimCache`] LRU bound during this
    /// search.
    pub cache_evictions: usize,
    /// Best makespan seen after each iteration — the optimizer's
    /// convergence trajectory (monotonically non-increasing).
    pub trajectory: Vec<Cycles>,
    /// Estimated makespan of the winner.
    pub best_makespan: Cycles,
}

impl DsaStats {
    /// Fraction of evaluated candidates that survived pruning, in
    /// `[0, 1]` (1.0 when nothing was evaluated).
    pub fn acceptance_rate(&self) -> f64 {
        if self.candidates_evaluated == 0 {
            1.0
        } else {
            self.survivors as f64 / self.candidates_evaluated as f64
        }
    }

    /// Fraction of evaluations answered by the simulation cache, in
    /// `[0, 1]` (0.0 when nothing was evaluated).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Folds another search's volume counters (iterations, simulations,
    /// candidates, survivors, cache traffic, delta reuse) into `self`,
    /// keeping `self`'s trajectory and best makespan. This is how
    /// `synthesize` merges per-replication-variant searches: the winning
    /// variant's stats absorb the losers' counters, so `simulations`
    /// reports total work while the trajectory stays the winner's.
    pub fn merge_counters(&mut self, other: &DsaStats) {
        self.iterations += other.iterations;
        self.simulations += other.simulations;
        self.candidates_evaluated += other.candidates_evaluated;
        self.survivors += other.survivors;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.delta_hits += other.delta_hits;
        self.cache_evictions += other.cache_evictions;
    }
}

/// How a candidate was derived from its parent — the delta engine's
/// invalidation cone. `None` for starting layouts (no parent).
struct Origin {
    /// The parent layout's fingerprint (its cache key).
    parent_fp: u64,
    /// Every instance whose core differs from the parent.
    moved: Vec<InstanceId>,
}

/// A pool entry: the layout plus its derivation.
struct Candidate {
    layout: Layout,
    origin: Option<Origin>,
}

impl Candidate {
    fn root(layout: Layout) -> Self {
        Candidate {
            layout,
            origin: None,
        }
    }
}

/// Runs directed simulated annealing from `initial` candidate layouts.
/// Candidate simulations run on one simulation pool for the call, with
/// at most [`DsaOptions::threads`] threads.
///
/// Returns the best layout found, its simulation result, and search
/// statistics.
///
/// # Panics
///
/// Panics if `initial` is empty.
pub fn optimize<R: Rng>(
    spec: &ProgramSpec,
    graph: &GroupGraph,
    profile: &Profile,
    machine: &MachineDescription,
    initial: Vec<Layout>,
    opts: &DsaOptions,
    rng: &mut R,
) -> (Layout, SimResult, DsaStats) {
    let mut cache = SimCache::new();
    optimize_with_cache(
        spec, graph, profile, machine, initial, opts, rng, &mut cache,
    )
}

/// [`optimize`] with a caller-owned memo cache, so repeated searches
/// over the *same* (spec, profile, machine) triple — the adaptive
/// controller re-optimizing every tick — replay earlier simulations
/// instead of redoing them. The cache keys on layout fingerprints
/// only; callers must clear it whenever the profile or machine
/// changes, or stale makespans will be replayed as truth.
///
/// # Panics
///
/// Panics if `initial` is empty.
#[allow(clippy::too_many_arguments)]
pub fn optimize_with_cache<R: Rng>(
    spec: &ProgramSpec,
    graph: &GroupGraph,
    profile: &Profile,
    machine: &MachineDescription,
    initial: Vec<Layout>,
    opts: &DsaOptions,
    rng: &mut R,
    cache: &mut SimCache,
) -> (Layout, SimResult, DsaStats) {
    assert!(
        !initial.is_empty(),
        "DSA needs at least one starting layout"
    );
    let program = SimProgram::new(spec, graph, profile, machine, &opts.sim);
    with_scorer(&program, opts, |pool| {
        anneal(&program, initial, opts, rng, cache, pool)
    })
    .0
}

/// Runs `search` with what `opts.engine` scores candidates on: a
/// simulation pool over `program` for [`DsaEngine::Delta`], none (the
/// serial reference engine) for [`DsaEngine::Reference`].
pub(crate) fn with_scorer<T>(
    program: &SimProgram<'_>,
    opts: &DsaOptions,
    search: impl FnOnce(Option<&mut SimPool<'_, '_>>) -> T,
) -> (T, PoolStats) {
    match opts.engine {
        DsaEngine::Reference => (search(None), PoolStats::default()),
        DsaEngine::Delta => with_pool(program, opts.threads, |pool| search(Some(pool))),
    }
}

/// The annealing loop of [`optimize_with_cache`], scoring candidates
/// with the reference engine when `pool` is `None` and on `pool`
/// otherwise. `synthesize` runs one loop per replication variant over
/// one shared program and pool.
pub(crate) fn anneal<R: Rng>(
    program: &SimProgram<'_>,
    initial: Vec<Layout>,
    opts: &DsaOptions,
    rng: &mut R,
    cache: &mut SimCache,
    mut pool: Option<&mut SimPool<'_, '_>>,
) -> (Layout, SimResult, DsaStats) {
    let graph = program.graph;
    let mut stats = DsaStats::default();
    let evictions_before = cache.evictions();
    let mut best: Option<(Layout, SimResult)> = None;
    let mut seen: HashSet<u64> = HashSet::new();

    // Deduplicate the starting pool by fingerprint and seed the
    // duplicate set with it. This gives the pool a strict invariant —
    // every entrant is either signature-fresh or a survivor (the exact
    // layout already simulated) — which is what lets the memo cache
    // replay results without ever conflating two signature-equal but
    // distinct placements, and keeps the search identical whether the
    // cache is on or off.
    let mut candidates: Vec<Candidate> = Vec::with_capacity(initial.len());
    for layout in initial {
        if seen.insert(layout.fingerprint(graph)) {
            candidates.push(Candidate::root(layout));
        }
    }

    for _ in 0..opts.max_iterations {
        stats.iterations += 1;
        // Evaluate: replay memoized results, synthesize idle-cone delta
        // hits, simulate the rest, and reassemble in candidate index
        // order.
        let mut evaluated = evaluate_candidates(
            program,
            opts,
            std::mem::take(&mut candidates),
            cache,
            pool.as_deref_mut(),
            &mut stats,
        );
        evaluated.sort_by_key(|(_, r)| r.makespan);
        stats.candidates_evaluated += evaluated.len();

        let improved = match (&best, evaluated.first()) {
            (Some((_, b)), Some((_, e))) => e.makespan < b.makespan,
            (None, Some(_)) => true,
            _ => false,
        };

        // Prune probabilistically. The round's best candidate always
        // survives: dropping the sole candidate of a one-start run would
        // otherwise end the search after a single simulation.
        let half = evaluated.len().div_ceil(2);
        let survivors: Vec<(Layout, SimResult)> = evaluated
            .into_iter()
            .enumerate()
            .filter(|(i, _)| {
                if *i == 0 {
                    return true;
                }
                let p = if *i < half {
                    opts.keep_best_probability
                } else {
                    opts.keep_worse_probability
                };
                rng.gen_bool(p)
            })
            .map(|(_, x)| x)
            .collect();
        stats.survivors += survivors.len();

        // The round's best is survivors[0] (index 0 always survives).
        if let Some((layout, result)) = survivors.first() {
            if best
                .as_ref()
                .map(|(_, b)| result.makespan < b.makespan)
                .unwrap_or(true)
            {
                best = Some((layout.clone(), result.clone()));
            }
        }
        if let Some((_, b)) = &best {
            stats.trajectory.push(b.makespan);
        }

        // Directed move generation, plus undirected exploration (the
        // annealing part: random moves and swaps escape the proposals'
        // blind spots — swaps in particular cross pigeonhole plateaus
        // that no single migration can improve). Every mutation records
        // its parent fingerprint and moved instances — the delta
        // engine's invalidation cone.
        let mut next: Vec<Candidate> = Vec::new();
        for (layout, result) in &survivors {
            let Some(trace) = &result.trace else { continue };
            let parent_fp = layout.fingerprint(graph);
            let mut mutated: Vec<Candidate> = Vec::new();
            for proposal in propose_moves(trace, layout, rng, opts.moves_per_layout) {
                mutated.push(Candidate {
                    layout: apply_move(layout, proposal),
                    origin: Some(Origin {
                        parent_fp,
                        moved: vec![proposal.instance],
                    }),
                });
            }
            for _ in 0..2 {
                if layout.instances.len() > 1 {
                    let inst = InstanceId(rng.gen_range(1..layout.instances.len()) as u32);
                    let core = CoreId::new(rng.gen_range(0..layout.core_count));
                    mutated.push(Candidate {
                        layout: apply_move(
                            layout,
                            MoveProposal {
                                instance: inst,
                                to_core: core,
                            },
                        ),
                        origin: Some(Origin {
                            parent_fp,
                            moved: vec![inst],
                        }),
                    });
                }
            }
            for _ in 0..2 {
                if layout.instances.len() > 2 {
                    let a = rng.gen_range(1..layout.instances.len());
                    let b = rng.gen_range(1..layout.instances.len());
                    if a != b {
                        let (ca, cb) = (layout.instances[a].core, layout.instances[b].core);
                        if ca != cb {
                            let swapped = apply_move(
                                &apply_move(
                                    layout,
                                    MoveProposal {
                                        instance: InstanceId(a as u32),
                                        to_core: cb,
                                    },
                                ),
                                MoveProposal {
                                    instance: InstanceId(b as u32),
                                    to_core: ca,
                                },
                            );
                            mutated.push(Candidate {
                                layout: swapped,
                                origin: Some(Origin {
                                    parent_fp,
                                    moved: vec![InstanceId(a as u32), InstanceId(b as u32)],
                                }),
                            });
                        }
                    }
                }
            }
            for moved in mutated {
                if seen.insert(moved.layout.fingerprint(graph)) {
                    next.push(moved);
                }
                if next.len() >= opts.max_candidates {
                    break;
                }
            }
        }
        // Survivors stay in the pool too (their traces may yield different
        // random groups next round).
        for (layout, _) in survivors {
            if next.len() >= opts.max_candidates {
                break;
            }
            next.push(Candidate::root(layout));
        }

        if next.is_empty() {
            break;
        }
        if !improved && !rng.gen_bool(opts.continue_probability) {
            break;
        }
        candidates = next;
    }

    stats.cache_evictions = cache.evictions() - evictions_before;
    let (layout, result) = best.expect("at least one candidate evaluated");
    stats.best_makespan = result.makespan;
    (layout, result, stats)
}

/// Scores one iteration's candidate pool, preserving pool order.
///
/// Memoized fingerprints replay from `cache`; candidates whose moved
/// instances sit outside their parent's activity cone synthesize from
/// the parent's journal (delta engine only); the rest simulate as one
/// batch — on the search's simulation `pool`, or serially on the
/// reference engine when there is none. The pool returns results by slot
/// index, so the returned vector — and therefore everything downstream —
/// is independent of how many threads simulated the batch.
fn evaluate_candidates(
    program: &SimProgram<'_>,
    opts: &DsaOptions,
    candidates: Vec<Candidate>,
    cache: &mut SimCache,
    pool: Option<&mut SimPool<'_, '_>>,
    stats: &mut DsaStats,
) -> Vec<(Layout, SimResult)> {
    let graph = program.graph;
    let mut results: Vec<Option<SimResult>> = vec![None; candidates.len()];
    let mut due: Vec<usize> = Vec::with_capacity(candidates.len());
    let mut fingerprints: Vec<u64> = vec![0; candidates.len()];
    for (slot, candidate) in candidates.iter().enumerate() {
        if opts.memoize {
            let fp = candidate.layout.fingerprint(graph);
            fingerprints[slot] = fp;
            if let Some(replayed) = cache.lookup(fp) {
                results[slot] = Some(replayed);
                stats.cache_hits += 1;
                continue;
            }
            // Idle-cone reuse: if every moved instance sat outside the
            // parent's activity cone, the parent's timeline *is* this
            // candidate's timeline — only the set of distinct cores in
            // use (utilization's denominator) can differ.
            if opts.engine == DsaEngine::Delta {
                if let Some(origin) = &candidate.origin {
                    let reusable = cache.peek(origin.parent_fp).and_then(|parent| {
                        parent.delta.as_ref().and_then(|journal| {
                            journal
                                .all_idle(&origin.moved)
                                .then(|| (parent.result.clone(), journal.clone()))
                        })
                    });
                    if let Some((mut result, journal)) = reusable {
                        result.utilization = if result.makespan == 0 {
                            0.0
                        } else {
                            journal.busy as f64
                                / (result.makespan as f64 * candidate.layout.cores_used() as f64)
                        };
                        stats.delta_hits += 1;
                        cache.store(
                            fp,
                            CachedSim {
                                result: result.clone(),
                                delta: Some(journal),
                            },
                        );
                        results[slot] = Some(result);
                        continue;
                    }
                }
            }
        }
        due.push(slot);
    }
    stats.cache_misses += due.len();
    stats.simulations += due.len();

    let layouts: Vec<Layout> = candidates.into_iter().map(|c| c.layout).collect();
    let layouts = match pool {
        None => {
            for &slot in &due {
                let result = simulate(
                    program.spec,
                    graph,
                    &layouts[slot],
                    program.profile,
                    program.machine,
                    &opts.sim,
                );
                if opts.memoize {
                    cache.insert(fingerprints[slot], result.clone());
                }
                results[slot] = Some(result);
            }
            layouts
        }
        Some(pool) => {
            let (layouts, scored) = pool.simulate(layouts, due, opts.sim.collect_trace);
            for (slot, result, journal) in scored {
                if opts.memoize {
                    cache.insert_entry(
                        fingerprints[slot],
                        CachedSim {
                            result: result.clone(),
                            delta: Some(journal),
                        },
                    );
                }
                results[slot] = Some(result);
            }
            layouts
        }
    };
    layouts
        .into_iter()
        .zip(results)
        .map(|(layout, result)| (layout, result.expect("every slot scored")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::random_layouts;
    use crate::preprocess::scc_tree_transform;
    use crate::testutil::kc_setup;
    use crate::transforms::compute_replication;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dsa_improves_on_single_core_start() {
        let (spec, cstg, profile) = kc_setup();
        let graph = scc_tree_transform(&GroupGraph::build(&spec, &cstg, &profile));
        let machine = MachineDescription::quad();
        let repl = compute_replication(&spec, &graph, &profile, 4);
        // Start from the worst layout: everything on core 0.
        let cores: Vec<Vec<bamboo_machine::CoreId>> = graph
            .groups
            .iter()
            .enumerate()
            .map(|(g, _)| vec![bamboo_machine::CoreId::new(0); repl.copies[g]])
            .collect();
        let start = Layout::new(&graph, &repl, 4, &cores);
        let start_result = simulate(
            &spec,
            &graph,
            &start,
            &profile,
            &machine,
            &SimOptions {
                collect_trace: true,
                ..SimOptions::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(11);
        let (_best, result, stats) = optimize(
            &spec,
            &graph,
            &profile,
            &machine,
            vec![start],
            &DsaOptions::default(),
            &mut rng,
        );
        assert!(stats.simulations >= 1);
        assert!(
            result.makespan < start_result.makespan,
            "DSA failed to improve: {} !< {}",
            result.makespan,
            start_result.makespan
        );
    }

    #[test]
    fn dsa_finds_near_best_of_random_sample() {
        let (spec, cstg, profile) = kc_setup();
        let graph = scc_tree_transform(&GroupGraph::build(&spec, &cstg, &profile));
        let machine = MachineDescription::quad();
        let repl = compute_replication(&spec, &graph, &profile, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let sample = random_layouts(&graph, &repl, 4, 20, &mut rng);
        let sample_best = sample
            .iter()
            .map(|l| {
                simulate(&spec, &graph, l, &profile, &machine, &SimOptions::default()).makespan
            })
            .min()
            .unwrap();
        let starts = random_layouts(&graph, &repl, 4, 3, &mut rng);
        let (_l, result, _s) = optimize(
            &spec,
            &graph,
            &profile,
            &machine,
            starts,
            &DsaOptions::default(),
            &mut rng,
        );
        assert!(
            result.makespan <= sample_best,
            "DSA {} worse than random sample best {}",
            result.makespan,
            sample_best
        );
    }

    /// One full optimize run with the given worker-thread count,
    /// memoization setting, and engine, from a fixed seed.
    fn run_with_engine(
        threads: usize,
        memoize: bool,
        engine: DsaEngine,
    ) -> (Layout, SimResult, DsaStats) {
        let (spec, cstg, profile) = kc_setup();
        let graph = scc_tree_transform(&GroupGraph::build(&spec, &cstg, &profile));
        let machine = MachineDescription::quad();
        let repl = compute_replication(&spec, &graph, &profile, 4);
        let mut rng = StdRng::seed_from_u64(23);
        let starts = random_layouts(&graph, &repl, 4, 6, &mut rng);
        let opts = DsaOptions {
            threads,
            memoize,
            engine,
            ..DsaOptions::default()
        };
        optimize(&spec, &graph, &profile, &machine, starts, &opts, &mut rng)
    }

    fn run_with(threads: usize, memoize: bool) -> (Layout, SimResult, DsaStats) {
        run_with_engine(threads, memoize, DsaEngine::Delta)
    }

    #[test]
    fn parallel_evaluation_is_bit_identical_to_serial() {
        let (serial_layout, serial_result, serial_stats) = run_with(1, true);
        for threads in [2, 4, 8] {
            let (layout, result, stats) = run_with(threads, true);
            assert_eq!(layout, serial_layout, "{threads} threads: layout diverged");
            assert_eq!(result.makespan, serial_result.makespan);
            assert_eq!(stats, serial_stats, "{threads} threads: stats diverged");
        }
    }

    /// The tentpole differential guarantee: the delta engine (arena
    /// simulation + idle-cone reuse + lazy traces) must reproduce the
    /// reference engine's search bit for bit — same winner, same
    /// makespan, same trajectory, same acceptance decisions.
    #[test]
    fn delta_engine_is_bit_identical_to_reference_engine() {
        for memoize in [true, false] {
            let (ref_layout, ref_result, ref_stats) =
                run_with_engine(1, memoize, DsaEngine::Reference);
            let (layout, result, stats) = run_with_engine(1, memoize, DsaEngine::Delta);
            assert_eq!(layout, ref_layout, "memoize={memoize}: layout diverged");
            assert_eq!(result.makespan, ref_result.makespan);
            assert_eq!(
                result.utilization.to_bits(),
                ref_result.utilization.to_bits()
            );
            assert_eq!(result.trace, ref_result.trace);
            assert_eq!(stats.trajectory, ref_stats.trajectory);
            assert_eq!(stats.candidates_evaluated, ref_stats.candidates_evaluated);
            assert_eq!(stats.survivors, ref_stats.survivors);
            assert_eq!(stats.best_makespan, ref_stats.best_makespan);
        }
    }

    /// With idle replicas in the layout (copies that never receive
    /// work), the idle-cone journal must actually produce delta hits —
    /// and the search must still match the reference engine bit for bit.
    #[test]
    fn delta_hits_fire_on_idle_replicas_without_changing_results() {
        let (spec, cstg, profile) = kc_setup();
        let graph = scc_tree_transform(&GroupGraph::build(&spec, &cstg, &profile));
        let machine = MachineDescription::quad();
        let mut repl = compute_replication(&spec, &graph, &profile, 4);
        for (g, copies) in repl.copies.iter_mut().enumerate() {
            if crate::groups::GroupId(g as u32) != graph.startup_group {
                *copies += 3;
            }
        }
        let run = |engine: DsaEngine| {
            let mut rng = StdRng::seed_from_u64(41);
            let starts = random_layouts(&graph, &repl, 4, 6, &mut rng);
            let opts = DsaOptions {
                threads: 1,
                engine,
                ..DsaOptions::default()
            };
            optimize(&spec, &graph, &profile, &machine, starts, &opts, &mut rng)
        };
        let (ref_layout, ref_result, ref_stats) = run(DsaEngine::Reference);
        let (layout, result, stats) = run(DsaEngine::Delta);
        assert!(
            stats.delta_hits > 0,
            "over-replicated layouts should produce idle-cone reuse"
        );
        assert_eq!(layout, ref_layout);
        assert_eq!(result.makespan, ref_result.makespan);
        assert_eq!(result.trace, ref_result.trace);
        assert_eq!(stats.trajectory, ref_stats.trajectory);
        assert_eq!(stats.candidates_evaluated, ref_stats.candidates_evaluated);
        assert_eq!(
            stats.simulations + stats.cache_hits + stats.delta_hits,
            stats.candidates_evaluated
        );
    }

    #[test]
    fn memoization_changes_work_but_not_results() {
        let (cold_layout, cold_result, cold_stats) = run_with(1, false);
        let (layout, result, stats) = run_with(1, true);
        assert_eq!(layout, cold_layout);
        assert_eq!(result.makespan, cold_result.makespan);
        assert_eq!(stats.trajectory, cold_stats.trajectory);
        assert_eq!(stats.candidates_evaluated, cold_stats.candidates_evaluated);
        // The cache only ever removes simulations.
        assert!(stats.simulations <= cold_stats.simulations);
        assert_eq!(
            stats.simulations + stats.cache_hits + stats.delta_hits,
            stats.candidates_evaluated
        );
        assert_eq!(stats.simulations, stats.cache_misses);
        assert!(
            stats.cache_hits > 0,
            "survivors re-entering the pool should hit the cache"
        );
        assert_eq!(cold_stats.cache_hits, 0);
        assert_eq!(cold_stats.delta_hits, 0);
    }

    #[test]
    fn merge_counters_sums_volume_and_keeps_trajectory() {
        let mut a = DsaStats {
            iterations: 3,
            simulations: 30,
            candidates_evaluated: 40,
            survivors: 12,
            cache_hits: 10,
            cache_misses: 30,
            delta_hits: 4,
            cache_evictions: 1,
            trajectory: vec![900, 800],
            best_makespan: 800,
        };
        let b = DsaStats {
            iterations: 2,
            simulations: 15,
            candidates_evaluated: 20,
            survivors: 9,
            cache_hits: 5,
            cache_misses: 15,
            delta_hits: 2,
            cache_evictions: 2,
            trajectory: vec![1000, 950],
            best_makespan: 950,
        };
        a.merge_counters(&b);
        assert_eq!(a.iterations, 5);
        assert_eq!(a.simulations, 45);
        assert_eq!(a.candidates_evaluated, 60);
        assert_eq!(a.survivors, 21);
        assert_eq!(a.cache_hits, 15);
        assert_eq!(a.cache_misses, 45);
        assert_eq!(a.delta_hits, 6);
        assert_eq!(a.cache_evictions, 3);
        assert_eq!(a.trajectory, vec![900, 800]);
        assert_eq!(a.best_makespan, 800);
    }

    #[test]
    #[should_panic(expected = "at least one starting layout")]
    fn empty_start_panics() {
        let (spec, cstg, profile) = kc_setup();
        let graph = GroupGraph::build(&spec, &cstg, &profile);
        let machine = MachineDescription::quad();
        let mut rng = StdRng::seed_from_u64(0);
        optimize(
            &spec,
            &graph,
            &profile,
            &machine,
            vec![],
            &DsaOptions::default(),
            &mut rng,
        );
    }
}
