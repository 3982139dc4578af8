//! `serve-kmeans` / `serve-fractal`: one application at `Scale::Small`,
//! resident on a 2-core machine model behind `Server`, under a stepped
//! capacity leg and a seeded open-loop Poisson leg.
//!
//! A resident run keeps every finished object until it shuts down, so
//! memory grows with every request served. Both legs therefore serve
//! from a series of short-lived servers: each capacity chunk and each
//! open-loop segment runs one set-up rep (serial oracle, compile,
//! profile, synthesize, deploy, start), warms its server up, measures,
//! and finishes it. Chunks and segments alternate through the run, so
//! both legs and the set-up sample the same stretch of host time.

use crate::host;
use crate::pipeline::{self, App, Built};
use crate::spans::{Owner, SpanLog};
use crate::stats::{self, ms, us, Metric};
use crate::workload::{LayerStats, Outcome};
use bamboo::telemetry::analyze::span_trees;
use bamboo::telemetry::event::arrival_source;
use bamboo::{
    ArrivalProcess, MachineDescription, Pacing, Poisson, RunOptions, Server, ServingOptions,
    ServingReport, Telemetry, ThreadedExecutor,
};
use bamboo_apps::Scale;
use std::cell::RefCell;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Worker cores of the machine model the deployment is planned for and
/// the threaded runtime runs (plus the serving driver thread).
pub const CORES: usize = 2;
/// Offered rate of the open-loop leg, requests per second.
pub const RATE_RPS: f64 = 1000.0;
/// Micro-batch cap of both legs.
pub const MAX_BATCH: usize = 8;
/// Arrivals this close together coalesce into one micro-batch.
pub const BATCH_WINDOW: Duration = Duration::from_micros(100);
/// Untimed requests that warm each capacity chunk's server.
pub const CAPACITY_WARMUP: usize = 200;
/// Timed requests of each capacity chunk.
pub const CAPACITY_CHUNK: usize = 1000;
/// Capacity chunks run before each open-loop segment: about a quarter
/// of the run goes to the capacity leg.
pub const CHUNKS_PER_SEGMENT: usize = 3;
/// Each open-loop segment's first arrivals are served but not
/// measured: a fresh server's first requests pay its cold start.
pub const WARMUP: Duration = Duration::from_millis(500);
/// Measured due-time span of each open-loop segment (and of the traced
/// one, whose telemetry rings must not overwrite events): 1000
/// arrivals, so a segment's p99 rests on 10 samples beyond it.
pub const SEGMENT: Duration = Duration::from_secs(1);
/// Capacity chunks of the traced pass.
pub const TRACED_CHUNKS: usize = 3;
/// Set-up reps whose exact counts and layout speedup are reported.
pub const EXACT_REPS: usize = 3;
/// Events each telemetry ring holds.
const RING_CAPACITY: usize = 1 << 21;
/// Seed streams derived from the workload seed.
const DSA_STREAM: u64 = 2;
const ARRIVAL_STREAM: u64 = 3;

/// Arrivals with no gap: the capacity leg offers requests back to back.
struct BackToBack;

impl ArrivalProcess for BackToBack {
    fn next_gap(&mut self) -> Duration {
        Duration::ZERO
    }

    fn source_tag(&self) -> u64 {
        arrival_source::TRACE
    }
}

/// The arrival schedule as the server consumed it: each arrival's
/// offset from the server's clock origin, and the instant the server
/// asked for the gap after it (the arrival had been offered by then).
#[derive(Default)]
struct Schedule {
    offsets: RefCell<Vec<Duration>>,
    asked: RefCell<Vec<Instant>>,
}

/// Wraps an arrival process and writes what it hands out into a
/// [`Schedule`].
struct Recorded<'a, P> {
    inner: P,
    clock: Duration,
    schedule: &'a Schedule,
}

impl<P: ArrivalProcess> ArrivalProcess for Recorded<'_, P> {
    fn next_gap(&mut self) -> Duration {
        self.schedule.asked.borrow_mut().push(Instant::now());
        let gap = self.inner.next_gap();
        self.clock += gap;
        self.schedule.offsets.borrow_mut().push(self.clock);
        gap
    }

    fn source_tag(&self) -> u64 {
        self.inner.source_tag()
    }
}

/// Operation accounting across the run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    arrivals: u64,
    shed: u64,
}

impl Tally {
    /// Checks a server's report: every arrival admitted, every admitted
    /// request completed, every completion ran `invocations` task
    /// invocations. A server that failed loses everything offered.
    fn check(&mut self, offered: u64, report: Option<&ServingReport>, invocations: u64) {
        self.attempted += offered;
        self.arrivals += offered;
        let Some(report) = report else {
            self.failed += offered;
            return;
        };
        let wrong = report
            .completions
            .iter()
            .filter(|c| c.invocations != invocations)
            .count() as u64;
        let missing = report.admitted.saturating_sub(report.completed);
        let unoffered = offered.saturating_sub(report.arrivals);
        self.shed += report.shed;
        self.failed += report.shed + missing + wrong + unoffered;
    }
}

/// Counters a `ThreadedReport` returns, summed over servers. Kept
/// instead of the reports, which hold every finished object.
#[derive(Clone, Copy, Debug, Default)]
struct Counts {
    completed: u64,
    invocations: u64,
    lock_retries: u64,
    steals: u64,
    router_contention: u64,
    retained_objects: u64,
}

impl Counts {
    fn add(&mut self, report: &ServingReport) {
        self.completed += report.completed;
        self.invocations += report.executor.invocations;
        self.lock_retries += report.executor.lock_retries;
        self.steals += report.executor.steals;
        self.router_contention += report.executor.router_contention;
        self.retained_objects += report.executor.finished.len() as u64;
    }
}

/// What a set-up rep measured.
struct Rep {
    built: Built,
    /// The timed set-up, s.
    setup_s: f64,
    /// `Server::start`, ms.
    start_ms: f64,
    /// 1-core ÷ 2-core virtual makespan of the rep's layout.
    speedup: f64,
    /// |predicted − virtual| ÷ virtual makespan, percent.
    estimate_err_pct: f64,
}

/// The server a set-up rep started.
struct Live {
    server: Server,
    /// When `Server::start` was called. The server stamps its arrival
    /// clock's origin as that call's first statement, so this is the
    /// origin to within a call.
    origin: Instant,
    /// Invocations of one request: the single-core run's count.
    invocations: u64,
}

/// Serial oracle, compile, profile, synthesize, deploy and server start
/// for rep `index`, timed as one set-up rep. Outside the timed span,
/// checks the single-core run and the layout's 2-core virtual run
/// against the serial digest; a mismatch or a failed start counts in
/// `tally`.
fn setup_rep(
    app_name: &str,
    seed: u64,
    index: usize,
    executor: &ThreadedExecutor,
    pacing: Pacing,
    telemetry: Option<&Telemetry>,
    tally: &mut Tally,
) -> Option<(Rep, Live)> {
    let machine = MachineDescription::n_cores(CORES);
    let t = Instant::now();
    let bench = bamboo_apps::by_name(app_name).expect("known application");
    let app = App::Paper(bench, Scale::Small);
    let serial_digest = app.oracle();
    let dsa_seed = pipeline::derive_seed(seed, DSA_STREAM, index as u64);
    let built = pipeline::build(&app, &machine, dsa_seed).ok();
    let deployment = built.as_ref().map(|b| b.compiler.deploy(&b.plan));
    let run = match telemetry {
        Some(t) => RunOptions::default().with_telemetry(t.clone()),
        None => RunOptions::default(),
    };
    let options = ServingOptions::new()
        .with_pacing(pacing)
        .with_batching(MAX_BATCH, BATCH_WINDOW);
    let origin = Instant::now();
    let server = deployment.and_then(|d| Server::start(executor, &d, run, options).ok());
    let started = Instant::now();

    tally.attempted += 1;
    let (Some(built), Some(server)) = (built, server) else {
        tally.failed += 1;
        return None;
    };
    let (speedup, estimate_err_pct, verified) = match pipeline::verify(&app, &built, &machine) {
        Ok((report, digest)) => {
            let observed = report.makespan.max(1) as f64;
            let predicted = built.plan.estimate.makespan as f64;
            (
                built.single.makespan as f64 / observed,
                (predicted - observed).abs() / observed * 100.0,
                built.single_digest == Some(serial_digest) && digest == Some(serial_digest),
            )
        }
        Err(_) => (0.0, 0.0, false),
    };
    tally.failed += u64::from(!verified);
    let live = Live {
        server,
        origin,
        invocations: built.single.invocations,
    };
    let rep = Rep {
        built,
        setup_s: (started - t).as_secs_f64(),
        start_ms: ms(started - origin),
        speedup,
        estimate_err_pct,
    };
    Some((rep, live))
}

/// One capacity chunk: stepped pacing, back-to-back arrivals in
/// micro-batches of [`MAX_BATCH`]; [`CAPACITY_WARMUP`] untimed
/// requests, then [`CAPACITY_CHUNK`] timed ones. Returns the timed
/// requests ÷ their wall time.
fn capacity_chunk(live: Live, tally: &mut Tally, spans: Option<&mut SpanLog>) -> Option<f64> {
    let Live {
        mut server,
        origin,
        invocations,
    } = live;
    let serve = |server: &mut Server, n| {
        server
            .serve(&mut BackToBack, n, |_| Box::new(()))
            .and_then(|()| server.await_idle())
    };
    let warm = serve(&mut server, CAPACITY_WARMUP);
    let t = Instant::now();
    let timed = warm.and_then(|()| serve(&mut server, CAPACITY_CHUNK));
    let end = Instant::now();
    let report = server.finish().ok().filter(|_| timed.is_ok());
    let offered = (CAPACITY_WARMUP + CAPACITY_CHUNK) as u64;
    tally.check(offered, report.as_ref(), invocations);
    if let Some(log) = spans {
        let root = log.record(
            "serving.capacity_chunk",
            None,
            Owner::Run,
            origin,
            Instant::now(),
        );
        log.record("serving.serve", Some(root), Owner::Run, t, end);
    }
    report.map(|_| CAPACITY_CHUNK as f64 / (end - t).as_secs_f64())
}

/// One open-loop segment.
#[derive(Default)]
struct Segment {
    /// Due → completed latency of each completed request due after the
    /// warm-up, ms.
    latency_ms: Vec<f64>,
    /// Request ids of those samples.
    requests: Vec<u64>,
    /// How late each arrival but the last was offered, ms.
    late_ms: Vec<f64>,
}

/// Seeded Poisson arrivals at [`RATE_RPS`] under wall pacing for
/// [`WARMUP`] plus `measured`, each request timed from its due time to
/// its completion. Adds the executor's counters to `counts`.
fn open_loop_segment(
    live: Live,
    arrival_seed: u64,
    measured: Duration,
    tally: &mut Tally,
    counts: &mut Counts,
    spans: Option<&mut SpanLog>,
) -> Segment {
    let Live {
        mut server,
        origin,
        invocations,
    } = live;
    let total = (RATE_RPS * (WARMUP + measured).as_secs_f64()).round() as usize;
    let schedule = Schedule::default();
    let mut process = Recorded {
        inner: Poisson::new(RATE_RPS, arrival_seed),
        clock: Duration::ZERO,
        schedule: &schedule,
    };
    let arrival_of: RefCell<HashMap<u64, usize>> = RefCell::new(HashMap::with_capacity(total));
    let serve_start = Instant::now();
    // `make` runs right after the arrival's gap was handed out, so the
    // arrival is the last one recorded.
    let served = server.serve(&mut process, total, |request| {
        let index = schedule.offsets.borrow().len() - 1;
        arrival_of.borrow_mut().insert(request, index);
        Box::new(())
    });
    let finish_start = Instant::now();
    let report = server.finish().ok().filter(|_| served.is_ok());
    let finish_end = Instant::now();
    tally.check(total as u64, report.as_ref(), invocations);
    let Some(report) = report else {
        return Segment::default();
    };
    counts.add(&report);

    let offsets = schedule.offsets.into_inner();
    let asked = schedule.asked.into_inner();
    let arrival_of = arrival_of.into_inner();
    let due = |index: usize| origin + offsets[index];
    let mut segment = Segment {
        late_ms: (1..asked.len())
            .map(|i| ms(asked[i].saturating_duration_since(due(i - 1))))
            .collect(),
        ..Segment::default()
    };
    let mut log = spans.map(|log| {
        let root = log.record(
            "serving.open_loop_segment",
            None,
            Owner::Run,
            origin,
            finish_end,
        );
        log.record(
            "serving.server.start",
            Some(root),
            Owner::Run,
            origin,
            serve_start,
        );
        let serve = log.record(
            "serving.serve",
            Some(root),
            Owner::Run,
            serve_start,
            finish_start,
        );
        log.record(
            "serving.finish",
            Some(root),
            Owner::Run,
            finish_start,
            finish_end,
        );
        (log, serve)
    });
    for c in &report.completions {
        let Some(&index) = arrival_of.get(&c.request) else {
            continue;
        };
        if let Some((log, serve)) = log.as_mut() {
            let owner = Owner::Request(c.request);
            log.record("request", Some(*serve), owner, due(index), c.completed_at);
        }
        if offsets[index] >= WARMUP {
            let latency = c.completed_at.saturating_duration_since(due(index));
            segment.latency_ms.push(ms(latency));
            segment.requests.push(c.request);
        }
    }
    segment
}

/// Mean per-request span partition (µs) and component shares, from the
/// telemetry of a traced segment; also the events the rings overwrote.
fn span_partition(telemetry: &Telemetry, requests: &[u64]) -> ([f64; 5], [f64; 5], u64) {
    let observed = telemetry.report();
    let trees = span_trees(&observed, requests);
    let mut sums = [0f64; 5];
    let mut total = 0f64;
    for tree in &trees {
        let b = &tree.breakdown;
        let parts = [b.compute, b.lock_wait, b.queue_wait, b.routing, b.idle];
        for (sum, part) in sums.iter_mut().zip(parts) {
            *sum += part as f64;
        }
        total += b.total as f64;
    }
    let n = trees.len().max(1) as f64;
    // Telemetry timestamps are nanoseconds.
    let mean_us = sums.map(|s| s / n / 1e3);
    let share = sums.map(|s| stats::ratio(s, total));
    (mean_us, share, observed.dropped)
}

/// Everything the untraced pass measured.
#[derive(Default)]
struct Legs {
    reps: Vec<Rep>,
    chunk_rps: Vec<f64>,
    segments: Vec<Segment>,
    counts: Counts,
}

impl Legs {
    /// Alternates [`CHUNKS_PER_SEGMENT`] capacity chunks and one
    /// open-loop segment until `seconds` pass (at least one round).
    fn run(
        executor: &ThreadedExecutor,
        app_name: &str,
        seed: u64,
        seconds: f64,
        tally: &mut Tally,
    ) -> Legs {
        let started = Instant::now();
        let mut legs = Legs::default();
        while legs.segments.is_empty() || started.elapsed().as_secs_f64() < seconds {
            for _ in 0..CHUNKS_PER_SEGMENT {
                let index = legs.reps.len();
                let stepped = Pacing::Stepped;
                if let Some((rep, live)) =
                    setup_rep(app_name, seed, index, executor, stepped, None, tally)
                {
                    legs.reps.push(rep);
                    legs.chunk_rps.extend(capacity_chunk(live, tally, None));
                }
            }
            let index = legs.reps.len();
            let Some((rep, live)) =
                setup_rep(app_name, seed, index, executor, Pacing::Wall, None, tally)
            else {
                // Counted as failed; an empty segment still ends the loop.
                legs.segments.push(Segment::default());
                continue;
            };
            legs.reps.push(rep);
            let arrival_seed = pipeline::derive_seed(seed, ARRIVAL_STREAM, index as u64);
            let counts = &mut legs.counts;
            let segment = open_loop_segment(live, arrival_seed, SEGMENT, tally, counts, None);
            legs.segments.push(segment);
        }
        legs
    }

    fn latency_ms(&self) -> Vec<f64> {
        self.segments
            .iter()
            .flat_map(|s| s.latency_ms.iter().copied())
            .collect()
    }

    /// Quantile `q` of each segment's latencies.
    fn per_segment_ms(&self, q: f64) -> Vec<f64> {
        self.segments
            .iter()
            .map(|s| stats::quantile(&s.latency_ms, q))
            .collect()
    }

    /// The reps whose exact counts are reported.
    fn exact(&self) -> &[Rep] {
        &self.reps[..EXACT_REPS.min(self.reps.len())]
    }
}

/// Runs `serve-<app_name>`.
pub fn run(
    workload: &'static str,
    app_name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Outcome {
    let mut log = traced.then(SpanLog::new);
    let executor = ThreadedExecutor::default();
    let mut tally = Tally::default();
    let mut outcome = Outcome::new(workload, seed);

    let budget = if traced { seconds / 2.0 } else { seconds };
    let legs = Legs::run(&executor, app_name, seed, budget, &mut tally);
    let setup_s: Vec<f64> = legs.reps.iter().map(|r| r.setup_s).collect();
    let speedups: Vec<f64> = legs.exact().iter().map(|r| r.speedup.max(1e-9)).collect();
    let lat = legs.latency_ms();
    // Host contention only ever slows a chunk or a segment down, and it
    // comes and goes between them: the faster quartile tracks the
    // program, the slower one the neighbours.
    outcome.end_to_end = vec![
        Metric::new("setup_s", stats::median(&setup_s), "s"),
        Metric::new("layout_speedup_gmean", stats::geomean(&speedups), "x"),
        Metric::new(
            "serve_capacity_rps",
            stats::quantile(&legs.chunk_rps, 0.75),
            "req/s",
        ),
        Metric::new(
            "serve_p50_ms",
            stats::quantile(&legs.per_segment_ms(0.5), 0.25),
            "ms",
        ),
        Metric::new(
            "serve_p99_ms",
            stats::median(&legs.per_segment_ms(0.99)),
            "ms",
        ),
        Metric::new("peak_rss_mb", host::peak_rss_mb(), "MB"),
    ];
    outcome.facts.push(format!(
        "set-up: median of {} reps, one before each chunk and segment",
        legs.reps.len()
    ));
    outcome.facts.push(format!(
        "capacity leg: upper quartile of {} chunks, each {CAPACITY_CHUNK} timed back-to-back \
         requests after {CAPACITY_WARMUP} untimed ones",
        legs.chunk_rps.len()
    ));
    outcome.facts.push(format!(
        "open-loop leg: {} segments, each {} ms warm-up + {} s measured; p50 = lower quartile \
         of the segments' p50, p99 = median of their p99, over {} requests (whole-leg p99 \
         {:.3} ms, {} beyond it)",
        legs.segments.len(),
        WARMUP.as_millis(),
        SEGMENT.as_secs(),
        lat.len(),
        stats::quantile(&lat, 0.99),
        stats::beyond(&lat, 0.99)
    ));
    outcome.facts.push(format!(
        "layout_speedup_gmean: 1-core / {CORES}-core virtual makespan, geometric mean over the first \
         {EXACT_REPS} set-up reps"
    ));

    if let Some(log) = log.as_mut() {
        let machine = MachineDescription::n_cores(CORES);
        let mut layer = setup_layers(&legs, &machine, log);
        let late: Vec<f64> = legs
            .segments
            .iter()
            .flat_map(|s| s.late_ms.clone())
            .collect();
        layer.late_ms_p99 = stats::quantile(&late, 0.99);
        // Counts the runtime returns anyway, from the untraced segments.
        let c = legs.counts;
        let completed = c.completed.max(1) as f64;
        layer.invocations_per_req = c.invocations as f64 / completed;
        layer.lock_retry_ratio = stats::ratio(
            c.lock_retries as f64,
            (c.invocations + c.lock_retries) as f64,
        );
        layer.steals_per_req = c.steals as f64 / completed;
        layer.router_contention_per_req = c.router_contention as f64 / completed;
        layer.retained_objects_per_req = c.retained_objects as f64 / completed;

        // Traced pass: benchmark-side spans plus the runtime's own
        // telemetry, read back through `analyze::span_trees`.
        let mut index = legs.reps.len();
        for _ in 0..TRACED_CHUNKS {
            let stepped = Pacing::Stepped;
            let rep = setup_rep(app_name, seed, index, &executor, stepped, None, &mut tally);
            index += 1;
            if let Some((_, live)) = rep {
                capacity_chunk(live, &mut tally, Some(log));
            }
        }
        let telemetry = Telemetry::with_capacity(CORES + 1, RING_CAPACITY);
        let wall = Pacing::Wall;
        let rep = setup_rep(
            app_name,
            seed,
            index,
            &executor,
            wall,
            Some(&telemetry),
            &mut tally,
        );
        if let Some((_, live)) = rep {
            let arrival_seed = pipeline::derive_seed(seed, ARRIVAL_STREAM, index as u64);
            let mut counts = Counts::default();
            let segment = open_loop_segment(
                live,
                arrival_seed,
                SEGMENT,
                &mut tally,
                &mut counts,
                Some(log),
            );
            let t = Instant::now();
            let (span_us, span_share, dropped) = span_partition(&telemetry, &segment.requests);
            log.record("telemetry.span_trees", None, Owner::Run, t, Instant::now());
            layer.span_us = span_us;
            layer.span_share = span_share;
            if dropped > 0 {
                let fact = format!("telemetry rings overwrote {dropped} events");
                outcome.facts.push(fact);
            }
            let untraced = stats::median(&legs.per_segment_ms(0.5));
            let overhead = (stats::median(&segment.latency_ms) / untraced - 1.0) * 100.0;
            layer.shed_frac = stats::ratio(tally.shed as f64, tally.arrivals as f64);
            outcome.per_layer = layer.into_metrics(overhead);
        }
    }
    outcome.spans = log;
    outcome.attempted = tally.attempted;
    outcome.failed = tally.failed;
    outcome
}

/// Compile-path layer metrics of the set-up reps: timings over every
/// rep, exact counts over the first [`EXACT_REPS`].
fn setup_layers(legs: &Legs, machine: &MachineDescription, log: &mut SpanLog) -> LayerStats {
    let reps = &legs.reps;
    let col = |f: fn(&Rep) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    let exact = legs.exact();
    let sum = |f: fn(&Built) -> usize| exact.iter().map(|r| f(&r.built)).sum::<usize>() as u64;
    let candidates = sum(|b| b.plan.stats.candidates_evaluated);
    let mut sim_us = Vec::new();
    let mut critpath_us = Vec::new();
    let mut sim_work_us = 0.0;
    for (index, rep) in reps.iter().enumerate() {
        let built = &rep.built;
        let (sim, critpath) = pipeline::probe_schedule(built, machine);
        sim_us.push(us(sim));
        critpath_us.push(us(critpath));
        sim_work_us += built.plan.stats.simulations as f64 * us(sim);
        let owner = Owner::Job(index as u64);
        built.record_spans(log, "setup.build", owner);
    }
    let synth_us: f64 = reps.iter().map(|r| us(r.built.synth_time())).sum();
    let errs: Vec<f64> = exact.iter().map(|r| r.estimate_err_pct).collect();
    LayerStats {
        build_ms: stats::mean(&col(|r| ms(r.built.build_time()))),
        profile_ms: stats::mean(&col(|r| ms(r.built.profile_time()))),
        profile_invocations: exact.iter().map(|r| r.built.single.invocations).sum(),
        synthesize_ms: stats::mean(&col(|r| ms(r.built.synth_time()))),
        simulations: sum(|b| b.plan.stats.simulations),
        candidates,
        iterations: sum(|b| b.plan.stats.iterations),
        cache_hit_ratio: stats::ratio(sum(|b| b.plan.stats.cache_hits) as f64, candidates as f64),
        accept_ratio: stats::ratio(sum(|b| b.plan.stats.survivors) as f64, candidates as f64),
        us_per_sim: stats::mean(&sim_us),
        sim_share: stats::ratio(sim_work_us, synth_us),
        critpath_us: stats::mean(&critpath_us),
        estimate_err_pct: stats::mean(&errs),
        server_start_ms: stats::median(&col(|r| r.start_ms)),
        ..LayerStats::default()
    }
}
