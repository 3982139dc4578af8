//! The simulation pool that scores DSA candidates (paper §4.5).
//!
//! One pool lives for one search: a whole [`synthesize`] call, replication
//! variants included, or one direct [`optimize`] /
//! [`optimize_with_cache`] call. The caller's thread is the pool's
//! *driver*: it works every batch itself on its own persistent
//! [`SimEngine`]. Helpers are extra threads, at most `threads - 1` of
//! them, started lazily the first time a batch pays for them; each owns a
//! persistent [`SimEngine`] over the shared [`SimProgram`] and parks
//! between batches. The driver and the helpers of a batch claim slots
//! from one atomic cursor, and the results merge back by slot, so what a
//! batch returns does not depend on who simulated what.
//!
//! # The cost rule
//!
//! A batch fans out only when the simulation time the helpers would take
//! off the driver exceeds what starting them costs (`fan_out_workers`).
//! Both sides are measured, not tuned:
//!
//! * the driver's mean simulation wall time in this search (the first
//!   simulation of a search always runs on the driver, which calibrates
//!   it);
//! * the host's helper start cost: the time from asking for a thread to
//!   that thread running, scheduling wait included. It is the mean over
//!   every helper this process started, seeded by one probe thread the
//!   first time a decision needs it. Waking a parked helper is charged at
//!   the same cost, since the wait to be scheduled is most of both.
//!
//! Small searches (the 2-core serving shapes: a few simulations of
//! 20–30 µs per batch) therefore run on the caller's thread and start no
//! helper; 62-core searches (dozens of simulations of 100 µs or more per
//! batch) fan out. [`PoolStats`] records what was decided.
//!
//! [`synthesize`]: crate::synthesis::synthesize
//! [`optimize`]: crate::dsa::optimize
//! [`optimize_with_cache`]: crate::dsa::optimize_with_cache

use crate::layout::Layout;
use crate::sim::{DeltaInfo, SimEngine, SimProgram, SimResult};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::Scope;
use std::time::{Duration, Instant};

/// What one search's simulation pool decided. Host-dependent (the
/// decisions follow measured times), so it is reported next to, never
/// inside, the bit-identical [`DsaStats`](crate::dsa::DsaStats).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Helper threads started. Never more than `threads - 1`.
    pub helpers_started: usize,
    /// Batches the driver shared with helpers.
    pub batches_fanned_out: usize,
    /// Batches the driver simulated alone.
    pub batches_inline: usize,
}

/// Resolves a thread-count knob: `0` means every available core.
fn worker_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// One scored slot: `(slot, result, activity journal)`.
pub(crate) type Scored = (usize, SimResult, DeltaInfo);

/// How many workers, the driver included, a batch of `due` simulations
/// should use. Each worker beyond the driver costs `start_cost` and takes
/// its share of the batch off the driver: with `w` workers the driver
/// keeps `ceil(due / w)` simulations of `mean_sim` each. The answer is
/// the `w` in `1..=max_workers` that saves the most time, the smallest on
/// ties, so `1` (run inline) unless helpers strictly pay for themselves.
pub(crate) fn fan_out_workers(
    due: usize,
    mean_sim: Duration,
    start_cost: Duration,
    max_workers: usize,
) -> usize {
    let saved = |w: usize| -> i128 {
        let off_driver = (due - due.div_ceil(w)) as i128;
        off_driver * mean_sim.as_nanos() as i128 - (w as i128 - 1) * start_cost.as_nanos() as i128
    };
    (2..=max_workers.min(due)).fold(1, |best, w| if saved(w) > saved(best) { w } else { best })
}

/// Process-wide helper start measurements: total time and count.
static STARTS: Mutex<(Duration, u32)> = Mutex::new((Duration::ZERO, 0));

fn record_start(latency: Duration) {
    let mut starts = STARTS.lock().unwrap_or_else(PoisonError::into_inner);
    starts.0 += latency;
    starts.1 += 1;
}

/// The host's mean helper start cost, scheduling wait included. The
/// first call in a process with nothing measured yet starts one probe
/// thread.
fn measured_start_cost() -> Duration {
    let mean = |starts: &(Duration, u32)| (starts.1 > 0).then(|| starts.0 / starts.1);
    if let Some(cost) = mean(&STARTS.lock().unwrap_or_else(PoisonError::into_inner)) {
        return cost;
    }
    let asked = Instant::now();
    std::thread::spawn(move || record_start(asked.elapsed()))
        .join()
        .expect("start-cost probe panicked");
    mean(&STARTS.lock().unwrap_or_else(PoisonError::into_inner)).expect("probe recorded a start")
}

/// One batch of simulations, shared by the driver and its helpers.
struct Batch {
    layouts: Vec<Layout>,
    due: Vec<usize>,
    cursor: AtomicUsize,
    collect_trace: bool,
    /// Results the helpers scored (the driver keeps its own).
    scored: Mutex<Vec<Scored>>,
}

impl Batch {
    /// Claims and simulates slots on `engine` until the batch is drained
    /// or `limit` slots are done.
    fn work(&self, engine: &mut SimEngine<'_>, limit: usize) -> Vec<Scored> {
        let mut scored = Vec::new();
        while scored.len() < limit {
            let next = self.cursor.fetch_add(1, Ordering::Relaxed);
            let Some(&slot) = self.due.get(next) else {
                break;
            };
            let (result, journal) = engine.simulate(&self.layouts[slot], self.collect_trace);
            scored.push((slot, result, journal));
        }
        scored
    }
}

/// The driver–helper hand-off, guarded by [`Shared::board`].
#[derive(Default)]
struct Board {
    /// The batch helpers may join, while the driver works it.
    open: Option<Arc<Batch>>,
    /// Bumped per opened batch, so a helper joins each batch once.
    generation: u64,
    /// Helpers that may still join the open batch.
    seats: usize,
    /// Helpers working a batch.
    in_flight: usize,
    helper_panicked: bool,
    /// The pool is shutting down; helpers exit.
    closed: bool,
}

#[derive(Default)]
struct Shared {
    board: Mutex<Board>,
    /// Helpers wait here for a batch.
    wake: Condvar,
    /// The driver waits here for helpers to leave a batch.
    idle: Condvar,
}

impl Shared {
    fn board(&self) -> MutexGuard<'_, Board> {
        self.board.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A helper's place in a batch. Dropping it, also while unwinding,
/// releases the batch before telling the driver the helper has left, so
/// the driver can take the batch back as soon as it sees no one in
/// flight.
struct Seat<'a> {
    shared: &'a Shared,
    batch: Option<Arc<Batch>>,
}

impl Drop for Seat<'_> {
    fn drop(&mut self) {
        drop(self.batch.take());
        let mut board = self.shared.board();
        board.in_flight -= 1;
        board.helper_panicked |= std::thread::panicking();
        if board.in_flight == 0 {
            self.shared.idle.notify_one();
        }
    }
}

fn helper(program: &SimProgram<'_>, shared: &Shared, asked: Instant) {
    record_start(asked.elapsed());
    let mut engine = SimEngine::new(program);
    let mut joined = 0;
    loop {
        let seat = {
            let mut board = shared.board();
            loop {
                if board.closed {
                    return;
                }
                if board.generation != joined && board.seats > 0 {
                    if let Some(batch) = board.open.clone() {
                        board.seats -= 1;
                        board.in_flight += 1;
                        joined = board.generation;
                        break Seat {
                            shared,
                            batch: Some(batch),
                        };
                    }
                }
                board = shared
                    .wake
                    .wait(board)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let batch = seat.batch.as_ref().expect("a seat holds its batch");
        let scored = batch.work(&mut engine, usize::MAX);
        batch
            .scored
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend(scored);
    }
}

/// A search's simulation pool; see the [module docs](self).
pub(crate) struct SimPool<'scope, 'env> {
    scope: &'scope Scope<'scope, 'env>,
    program: &'env SimProgram<'env>,
    shared: &'env Shared,
    engine: SimEngine<'env>,
    max_helpers: usize,
    /// Wall time and count of the driver's simulations.
    driver_time: Duration,
    driver_sims: u32,
    start_cost: fn() -> Duration,
    stats: PoolStats,
}

/// Runs `search` with a simulation pool over `program` that keeps at
/// most `threads` simulation threads alive, the caller's included (`0`:
/// one per available core). Helpers exit before this returns.
pub(crate) fn with_pool<T>(
    program: &SimProgram<'_>,
    threads: usize,
    search: impl FnOnce(&mut SimPool<'_, '_>) -> T,
) -> (T, PoolStats) {
    with_pool_costed(program, threads, measured_start_cost, search)
}

fn with_pool_costed<T>(
    program: &SimProgram<'_>,
    threads: usize,
    start_cost: fn() -> Duration,
    search: impl FnOnce(&mut SimPool<'_, '_>) -> T,
) -> (T, PoolStats) {
    let shared = Shared::default();
    std::thread::scope(|scope| {
        let mut pool = SimPool {
            scope,
            program,
            shared: &shared,
            engine: SimEngine::new(program),
            max_helpers: worker_threads(threads).saturating_sub(1),
            driver_time: Duration::ZERO,
            driver_sims: 0,
            start_cost,
            stats: PoolStats::default(),
        };
        let out = search(&mut pool);
        (out, pool.stats)
    })
}

impl Drop for SimPool<'_, '_> {
    fn drop(&mut self) {
        self.shared.board().closed = true;
        self.shared.wake.notify_all();
    }
}

impl SimPool<'_, '_> {
    /// Simulates `layouts[slot]` for every slot in `due`; returns the
    /// layouts and the `(slot, result, journal)` triples sorted by slot.
    pub(crate) fn simulate(
        &mut self,
        layouts: Vec<Layout>,
        due: Vec<usize>,
        collect_trace: bool,
    ) -> (Vec<Layout>, Vec<Scored>) {
        if due.is_empty() {
            return (layouts, Vec::new());
        }
        let batch = Arc::new(Batch {
            layouts,
            due,
            cursor: AtomicUsize::new(0),
            collect_trace,
            scored: Mutex::new(Vec::new()),
        });
        // The search's first simulation calibrates the mean.
        let mut scored = if self.driver_sims == 0 {
            self.drive(&batch, 1)
        } else {
            Vec::new()
        };
        let left = batch.due.len() - scored.len();
        let workers = if left >= 2 && self.max_helpers > 0 {
            let mean = self.driver_time / self.driver_sims;
            fan_out_workers(left, mean, (self.start_cost)(), self.max_helpers + 1)
        } else {
            1
        };
        if workers > 1 {
            self.stats.batches_fanned_out += 1;
            self.open(&batch, workers - 1);
            scored.extend(self.drive(&batch, usize::MAX));
            self.close();
            scored.append(&mut batch.scored.lock().unwrap_or_else(PoisonError::into_inner));
        } else {
            self.stats.batches_inline += 1;
            scored.extend(self.drive(&batch, usize::MAX));
        }
        scored.sort_by_key(|(slot, _, _)| *slot);
        let batch = Arc::into_inner(batch).expect("helpers left the batch");
        (batch.layouts, scored)
    }

    /// Works `batch` on the driver's engine, timing it.
    fn drive(&mut self, batch: &Batch, limit: usize) -> Vec<Scored> {
        let started = Instant::now();
        let scored = batch.work(&mut self.engine, limit);
        self.driver_time += started.elapsed();
        self.driver_sims += scored.len() as u32;
        scored
    }

    /// Offers `batch` to `helpers` helpers, starting the missing ones.
    fn open(&mut self, batch: &Arc<Batch>, helpers: usize) {
        let live = self.stats.helpers_started;
        {
            let mut board = self.shared.board();
            board.open = Some(Arc::clone(batch));
            board.generation += 1;
            board.seats = helpers;
        }
        for _ in 0..helpers.min(live) {
            self.shared.wake.notify_one();
        }
        for _ in live..helpers {
            let (program, shared, asked) = (self.program, self.shared, Instant::now());
            self.scope.spawn(move || helper(program, shared, asked));
            self.stats.helpers_started += 1;
        }
    }

    /// Withdraws the open batch and waits for the helpers that joined it.
    fn close(&self) {
        let mut board = self.shared.board();
        board.open = None;
        board.seats = 0;
        while board.in_flight > 0 {
            board = self
                .shared
                .idle
                .wait(board)
                .unwrap_or_else(PoisonError::into_inner);
        }
        assert!(!board.helper_panicked, "simulation helper panicked");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groups::GroupGraph;
    use crate::mapping::random_layouts;
    use crate::preprocess::scc_tree_transform;
    use crate::sim::SimOptions;
    use crate::testutil::kc_setup;
    use crate::transforms::compute_replication;
    use bamboo_machine::MachineDescription;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const US: Duration = Duration::from_micros(1);

    #[test]
    fn serving_batches_run_inline() {
        // A 2-core serving batch: a few simulations of 25 µs against a
        // 70 µs helper start.
        for due in 0..=5 {
            assert_eq!(fan_out_workers(due, 25 * US, 70 * US, 2), 1, "due {due}");
        }
    }

    #[test]
    fn large_batches_fan_out_to_the_bound() {
        // A 62-core batch: 30 simulations of 100 µs.
        assert_eq!(fan_out_workers(30, 100 * US, 70 * US, 2), 2);
        // Six workers leave the driver 5 simulations; a seventh would
        // not shrink that.
        assert_eq!(fan_out_workers(30, 100 * US, 70 * US, 8), 6);
        // Never more workers than simulations.
        assert_eq!(fan_out_workers(3, 100 * US, Duration::ZERO, 8), 3);
    }

    #[test]
    fn workers_stop_where_the_next_one_costs_more_than_it_saves() {
        // 12 × 10 µs: 2 workers save 60 µs, 3 save 80 µs, 4 save 90 µs.
        assert_eq!(fan_out_workers(12, 10 * US, 5 * US, 8), 4);
        assert_eq!(fan_out_workers(12, 10 * US, 15 * US, 8), 3);
        assert_eq!(fan_out_workers(12, 10 * US, 55 * US, 8), 2);
        assert_eq!(
            fan_out_workers(12, 10 * US, 60 * US, 8),
            1,
            "ties stay inline"
        );
        // One allowed worker is always inline.
        assert_eq!(fan_out_workers(100, 100 * US, Duration::ZERO, 1), 1);
    }

    /// Scores the same batches at `threads`, with helpers free so that
    /// every batch of two or more fans out.
    fn score(threads: usize, batches: &[Vec<Layout>]) -> (Vec<Vec<Scored>>, PoolStats) {
        let (spec, cstg, profile) = kc_setup();
        let graph = scc_tree_transform(&GroupGraph::build(&spec, &cstg, &profile));
        let machine = MachineDescription::quad();
        let program = SimProgram::new(&spec, &graph, &profile, &machine, &SimOptions::default());
        with_pool_costed(
            &program,
            threads,
            || Duration::ZERO,
            |pool| {
                batches
                    .iter()
                    .map(|layouts| {
                        let due = (0..layouts.len()).rev().step_by(2).collect();
                        pool.simulate(layouts.clone(), due, true).1
                    })
                    .collect()
            },
        )
    }

    #[test]
    fn fanned_out_batches_match_the_driver_alone() {
        let (spec, cstg, profile) = kc_setup();
        let graph = scc_tree_transform(&GroupGraph::build(&spec, &cstg, &profile));
        let repl = compute_replication(&spec, &graph, &profile, 4);
        let mut rng = StdRng::seed_from_u64(3);
        let batches: Vec<Vec<Layout>> = [1, 12, 2, 20, 7]
            .iter()
            .map(|&n| random_layouts(&graph, &repl, 4, n, &mut rng))
            .collect();
        let (serial, serial_stats) = score(1, &batches);
        assert_eq!(serial_stats.helpers_started, 0);
        assert_eq!(serial_stats.batches_fanned_out, 0);
        for threads in [2, 4] {
            let (scored, stats) = score(threads, &batches);
            for (a, b) in scored.iter().zip(&serial) {
                let slots = |s: &[Scored]| s.iter().map(|x| x.0).collect::<Vec<_>>();
                assert_eq!(slots(a), slots(b));
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.1.makespan, y.1.makespan);
                    assert_eq!(x.1.utilization.to_bits(), y.1.utilization.to_bits());
                    assert_eq!(x.1.trace, y.1.trace);
                    assert_eq!(x.2, y.2);
                }
            }
            // Each batch of two or more due slots fans out; helpers start
            // once and are woken for later batches.
            assert!(stats.batches_fanned_out >= 3, "{stats:?}");
            assert_eq!(
                stats.batches_fanned_out + stats.batches_inline,
                batches.len()
            );
            assert!(stats.helpers_started < threads, "{stats:?}");
        }
    }
}
