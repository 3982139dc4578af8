//! `synth-tile62`: layout synthesis of the six paper applications at
//! `Scale::Original` plus the 62-section keyword-count DSL program, each
//! for the 62-core TILEPro64 model.

use crate::host;
use crate::pipeline::{self, App};
use crate::spans::{Owner, SpanLog};
use crate::stats::{self, ms, us, Metric};
use crate::workload::{LayerStats, Outcome};
use bamboo::MachineDescription;
use bamboo_apps::Scale;
use std::time::Instant;

/// Text sections of the keyword-count job: one per worker core of the
/// 62-core model.
pub const KEYWORD_SECTIONS: usize = 62;
/// Rounds (one job per program each) whose exact counts are reported;
/// the first of them is also the untimed warm-up round.
pub const EXACT_ROUNDS: usize = 2;
/// Timed jobs a pass runs at least, so that the p90 has ten jobs
/// beyond it.
pub const MIN_TIMED_JOBS: usize = 100;
/// A timed set-up rep runs before the first round and then every this
/// many rounds; the median of the reps is `setup_s`.
pub const SETUP_EVERY: usize = 4;
/// Seed stream of the annealer seeds.
const DSA_STREAM: u64 = 1;

/// The job set: the six paper applications, then the keyword program.
pub fn programs() -> Vec<App> {
    bamboo_apps::all()
        .into_iter()
        .map(|b| App::Paper(b, Scale::Original))
        .chain(std::iter::once(App::Keyword(KEYWORD_SECTIONS)))
        .collect()
}

/// Programs plus their independently computed expected digests.
struct Setup {
    programs: Vec<App>,
    oracles: Vec<u64>,
}

impl Setup {
    /// Builds the job set and runs every serial oracle.
    fn new() -> Self {
        let programs = programs();
        let oracles = programs.iter().map(App::oracle).collect();
        Setup { programs, oracles }
    }
}

/// What one job measured.
#[derive(Clone, Debug, Default)]
pub struct Job {
    /// Whether every oracle passed.
    pub ok: bool,
    /// Source → layout wall time, ms.
    pub wall_ms: f64,
    /// Frontend + analyses, ms.
    pub build_ms: f64,
    /// Single-core profiling run, ms.
    pub profile_ms: f64,
    /// Synthesis, ms.
    pub synth_ms: f64,
    /// Invocations of the profiling run.
    pub profile_invocations: u64,
    /// Annealer simulations.
    pub simulations: u64,
    /// Annealer candidates evaluated.
    pub candidates: u64,
    /// Annealer iterations.
    pub iterations: u64,
    /// Candidates answered by the simulation cache.
    pub cache_hits: u64,
    /// Candidates that survived pruning.
    pub survivors: u64,
    /// 1-core ÷ 62-core virtual makespan.
    pub speedup: f64,
    /// |predicted − virtual| ÷ virtual makespan, percent.
    pub estimate_err_pct: f64,
    /// One full simulation of the winner, µs (traced passes only).
    pub sim_us: f64,
    /// One `critical_path` of the winner's trace, µs (traced passes only).
    pub critpath_us: f64,
}

/// Runs job `index` of the sequence seeded by `seed`.
fn run_job(
    setup: &Setup,
    machine: &MachineDescription,
    seed: u64,
    index: u64,
    spans: Option<&mut SpanLog>,
) -> Job {
    let program = index as usize % setup.programs.len();
    let app = &setup.programs[program];
    let oracle = setup.oracles[program];
    let dsa_seed = pipeline::derive_seed(seed, DSA_STREAM, index);
    let mut job = Job::default();
    let Ok(built) = pipeline::build(app, machine, dsa_seed) else {
        return job;
    };
    job.wall_ms = ms(built.wall());
    job.build_ms = ms(built.build_time());
    job.profile_ms = ms(built.profile_time());
    job.synth_ms = ms(built.synth_time());
    job.profile_invocations = built.single.invocations;
    let stats = &built.plan.stats;
    job.simulations = stats.simulations as u64;
    job.candidates = stats.candidates_evaluated as u64;
    job.iterations = stats.iterations as u64;
    job.cache_hits = stats.cache_hits as u64;
    job.survivors = stats.survivors as u64;

    // Everything below is outside the timed span.
    let verify_start = Instant::now();
    let verified = pipeline::verify(app, &built, machine);
    let verify_end = Instant::now();
    if let Ok((report, digest)) = &verified {
        job.ok = built.single_digest == Some(oracle) && *digest == Some(oracle);
        job.speedup = built.single.makespan as f64 / report.makespan.max(1) as f64;
        let predicted = built.plan.estimate.makespan as f64;
        let observed = report.makespan.max(1) as f64;
        job.estimate_err_pct = (predicted - observed).abs() / observed * 100.0;
    }
    if let Some(log) = spans {
        let (sim, critpath) = pipeline::probe_schedule(&built, machine);
        job.sim_us = us(sim);
        job.critpath_us = us(critpath);
        let owner = Owner::Job(index);
        built.record_spans(log, "job", owner);
        log.record("virtual_exec.verify", None, owner, verify_start, verify_end);
    }
    job
}

/// Jobs of one pass over the sequence.
pub struct Pass {
    /// Every job, in sequence order.
    pub jobs: Vec<Job>,
    /// Jobs per round.
    pub round: usize,
    /// Wall time of each set-up rep, s.
    pub setup_s: Vec<f64>,
}

impl Pass {
    /// Runs whole rounds of the sequence seeded by `seed` until at least
    /// `min_jobs` jobs ran and `seconds` elapsed, with a set-up rep
    /// before the first round and every [`SETUP_EVERY`] rounds.
    pub fn run(seed: u64, seconds: f64, min_jobs: usize, mut spans: Option<&mut SpanLog>) -> Pass {
        let machine = MachineDescription::tilepro64();
        let started = Instant::now();
        let mut jobs = Vec::new();
        let mut setup_s = Vec::new();
        let mut setup = None;
        let mut rounds = 0;
        loop {
            if rounds % SETUP_EVERY == 0 {
                let t = Instant::now();
                setup = Some(Setup::new());
                setup_s.push(t.elapsed().as_secs_f64());
            }
            let setup = setup.as_ref().expect("set up before the first round");
            let round = setup.programs.len();
            for _ in 0..round {
                let index = jobs.len() as u64;
                jobs.push(run_job(setup, &machine, seed, index, spans.as_deref_mut()));
            }
            rounds += 1;
            if jobs.len() >= min_jobs && started.elapsed().as_secs_f64() >= seconds {
                return Pass {
                    jobs,
                    round,
                    setup_s,
                };
            }
        }
    }

    /// Jobs whose wall time counts: all but the warm-up round.
    pub fn timed(&self) -> &[Job] {
        &self.jobs[self.round.min(self.jobs.len())..]
    }

    /// Jobs whose exact counts are reported.
    pub fn exact(&self) -> &[Job] {
        &self.jobs[..(EXACT_ROUNDS * self.round).min(self.jobs.len())]
    }

    /// Per-job source → layout wall times of the timed jobs, ms.
    pub fn walls(&self) -> Vec<f64> {
        self.timed().iter().map(|j| j.wall_ms).collect()
    }

    /// Jobs that failed an oracle.
    pub fn failed(&self) -> u64 {
        self.jobs.iter().filter(|j| !j.ok).count() as u64
    }

    /// Geometric-mean layout speedup over the exact rounds.
    pub fn speedup_gmean(&self) -> f64 {
        let speedups: Vec<f64> = self.exact().iter().map(|j| j.speedup.max(1e-9)).collect();
        stats::geomean(&speedups)
    }

    /// Exact annealer counts over the exact rounds.
    pub fn dsa_counts(&self) -> [u64; 5] {
        let sum = |f: fn(&Job) -> u64| self.exact().iter().map(f).sum::<u64>();
        [
            sum(|j| j.simulations),
            sum(|j| j.candidates),
            sum(|j| j.iterations),
            sum(|j| j.cache_hits),
            sum(|j| j.survivors),
        ]
    }

    /// Mean predicted-vs-virtual makespan error over the exact rounds.
    pub fn estimate_err_pct(&self) -> f64 {
        let errs: Vec<f64> = self.exact().iter().map(|j| j.estimate_err_pct).collect();
        stats::mean(&errs)
    }
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut log = traced.then(SpanLog::new);
    let budget = if traced { seconds / 2.0 } else { seconds };
    let round = programs().len();
    let min_jobs = (EXACT_ROUNDS * round).max(round + MIN_TIMED_JOBS);
    let plain = Pass::run(seed, budget, min_jobs, None);
    let walls = plain.walls();
    let wall_sum_s: f64 = walls.iter().sum::<f64>() / 1e3;
    let mut outcome = Outcome::new("synth-tile62", seed);
    outcome.attempted = plain.jobs.len() as u64;
    outcome.failed = plain.failed();
    outcome.end_to_end = vec![
        Metric::new("setup_s", stats::median(&plain.setup_s), "s"),
        Metric::new(
            "synth_jobs_per_s",
            walls.len() as f64 / wall_sum_s,
            "jobs/s",
        ),
        Metric::new("synth_ms_p50", stats::median(&walls), "ms"),
        Metric::new("synth_ms_p90", stats::quantile(&walls, 0.9), "ms"),
        Metric::new("layout_speedup_gmean", plain.speedup_gmean(), "x"),
        Metric::new("peak_rss_mb", host::peak_rss_mb(), "MB"),
    ];
    outcome.facts.push(format!(
        "jobs: {} timed over {} programs (+1 warm-up round); p90 rests on {} jobs beyond it; \
         set-up: median of {} reps",
        walls.len(),
        plain.round,
        stats::beyond(&walls, 0.9),
        plain.setup_s.len()
    ));

    if let Some(log) = log.as_mut() {
        let traced_pass = Pass::run(seed, budget, min_jobs, Some(log));
        outcome.attempted += traced_pass.jobs.len() as u64;
        outcome.failed += traced_pass.failed();
        let overhead = (stats::median(&traced_pass.walls()) / stats::median(&walls) - 1.0) * 100.0;
        outcome.per_layer = synth_layers(&traced_pass).into_metrics(overhead);
    }
    outcome.spans = log;
    outcome
}

/// Layer metrics of a traced pass.
fn synth_layers(pass: &Pass) -> LayerStats {
    let timed = pass.timed();
    let col = |f: fn(&Job) -> f64| -> Vec<f64> { timed.iter().map(f).collect() };
    let [simulations, candidates, iterations, cache_hits, survivors] = pass.dsa_counts();
    let sim_work_us: f64 = timed.iter().map(|j| j.simulations as f64 * j.sim_us).sum();
    let synth_us: f64 = timed.iter().map(|j| j.synth_ms * 1e3).sum();
    LayerStats {
        build_ms: stats::mean(&col(|j| j.build_ms)),
        profile_ms: stats::mean(&col(|j| j.profile_ms)),
        profile_invocations: pass.exact().iter().map(|j| j.profile_invocations).sum(),
        synthesize_ms: stats::mean(&col(|j| j.synth_ms)),
        simulations,
        candidates,
        iterations,
        cache_hit_ratio: stats::ratio(cache_hits as f64, candidates as f64),
        accept_ratio: stats::ratio(survivors as f64, candidates as f64),
        us_per_sim: stats::mean(&col(|j| j.sim_us)),
        sim_share: stats::ratio(sim_work_us, synth_us),
        critpath_us: stats::mean(&col(|j| j.critpath_us)),
        estimate_err_pct: pass.estimate_err_pct(),
        ..LayerStats::default()
    }
}
