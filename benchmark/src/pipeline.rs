//! The compile path every workload drives: source → analyses →
//! single-core profiling run → layout synthesis, each call timed from
//! outside, plus the untimed checks and layer probes run on its result.

use crate::spans::{Owner, SpanLog};
use bamboo::lang::interp::Value;
use bamboo::runtime::PayloadSlot;
use bamboo::schedule::{critical_path, SimEngine, SimProgram};
use bamboo::{
    Compiler, DsaOptions, ExecConfig, ExecError, MachineDescription, Profile, RunReport,
    SynthesisOptions, SynthesisResult, VirtualExecutor,
};
use bamboo_apps::{keyword, Benchmark, Scale};
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Worker threads handed to layout synthesis. Pinned, never "all
/// cores", so two hosts or two legs differ in no unrecorded factor.
pub const SYNTH_THREADS: usize = 2;

/// A program the benchmark compiles.
pub enum App {
    /// One of the six paper applications at a scale.
    Paper(Box<dyn Benchmark>, Scale),
    /// The keyword-count DSL program with this many text sections.
    Keyword(usize),
}

impl App {
    /// Builds the program: the frontend (DSL programs only) and the
    /// dependence and disjointness analyses.
    pub fn compiler(&self) -> Compiler {
        match self {
            App::Paper(b, scale) => b.compiler(*scale),
            App::Keyword(sections) => keyword::compiler(*sections),
        }
    }

    /// The expected result digest, computed independently of the
    /// compiler: the serial baseline's checksum, or the keyword count
    /// the bundled text implies.
    pub fn oracle(&self) -> u64 {
        match self {
            App::Paper(b, scale) => b.serial(*scale).checksum,
            App::Keyword(sections) => (keyword::KEYWORDS_PER_SECTION * *sections as i64) as u64,
        }
    }

    /// The result digest a finished virtual run produced (`None` when
    /// the result object is missing or malformed).
    pub fn digest(&self, compiler: &Compiler, exec: &VirtualExecutor<'_>) -> Option<u64> {
        match self {
            App::Paper(b, _) => Some(b.parallel_checksum(compiler, exec)),
            App::Keyword(_) => {
                let results = compiler.program.spec.class_by_name("Results")?;
                let objs = exec.store.live_of_class(results);
                let [obj] = objs.as_slice() else {
                    return None;
                };
                let PayloadSlot::Interp(r) = exec.store.get(*obj).payload else {
                    return None;
                };
                match exec.interp_heap()?.field(r, 0) {
                    Value::Int(total) => Some(*total as u64),
                    _ => None,
                }
            }
        }
    }
}

/// A program taken from source to a synthesized layout.
pub struct Built {
    /// The analysed program.
    pub compiler: Compiler,
    /// Profile of the single-core run.
    pub profile: Profile,
    /// The single-core run's report.
    pub single: RunReport,
    /// The single-core run's result digest.
    pub single_digest: Option<u64>,
    /// The synthesized plan.
    pub plan: SynthesisResult,
    /// When `App::compiler` was called.
    pub start: Instant,
    /// When `Compiler::profile_run` was called.
    pub profile_start: Instant,
    /// When `Compiler::synthesize` was called.
    pub synth_start: Instant,
    /// When synthesis returned.
    pub end: Instant,
}

impl Built {
    /// Source → layout wall time.
    pub fn wall(&self) -> Duration {
        self.end - self.start
    }

    /// Time in `App::compiler` (frontend + analyses).
    pub fn build_time(&self) -> Duration {
        self.profile_start - self.start
    }

    /// Time in `Compiler::profile_run`.
    pub fn profile_time(&self) -> Duration {
        self.synth_start - self.profile_start
    }

    /// Time in `Compiler::synthesize`.
    pub fn synth_time(&self) -> Duration {
        self.end - self.synth_start
    }

    /// Records a `name` span over the whole build with one child span
    /// per call: `compiler.build`, `virtual_exec.profile` and
    /// `schedule.synthesize`.
    pub fn record_spans(&self, log: &mut SpanLog, name: &'static str, owner: Owner) {
        let root = Some(log.record(name, None, owner, self.start, self.end));
        let calls = [
            ("compiler.build", self.start, self.profile_start),
            ("virtual_exec.profile", self.profile_start, self.synth_start),
            ("schedule.synthesize", self.synth_start, self.end),
        ];
        for (call, start, end) in calls {
            log.record(call, root, owner, start, end);
        }
    }
}

/// Compiles, profiles and synthesizes `app` for `machine`, with the
/// annealer seeded by `dsa_seed`.
///
/// # Errors
///
/// The profiling run's executor error.
pub fn build(app: &App, machine: &MachineDescription, dsa_seed: u64) -> Result<Built, ExecError> {
    let start = Instant::now();
    let compiler = app.compiler();
    let profile_start = Instant::now();
    let (profile, single, single_digest) =
        compiler.profile_run(None, "benchmark", |exec| app.digest(&compiler, exec))?;
    let synth_start = Instant::now();
    let mut rng = rand::rngs::StdRng::seed_from_u64(dsa_seed);
    let opts = SynthesisOptions::default().with_threads(SYNTH_THREADS);
    let plan = compiler.synthesize(&profile, machine, &opts, &mut rng);
    let end = Instant::now();
    Ok(Built {
        compiler,
        profile,
        single,
        single_digest,
        plan,
        start,
        profile_start,
        synth_start,
        end,
    })
}

/// Runs the synthesized layout on `VirtualExecutor`; returns the run's
/// report and result digest.
///
/// # Errors
///
/// The virtual run's executor error.
pub fn verify(
    app: &App,
    built: &Built,
    machine: &MachineDescription,
) -> Result<(RunReport, Option<u64>), ExecError> {
    let plan = &built.plan;
    let mut exec =
        built
            .compiler
            .executor(&plan.graph, &plan.layout, machine, ExecConfig::default());
    let report = exec.run(None)?;
    let digest = app.digest(&built.compiler, &exec);
    Ok((report, digest))
}

/// Timed re-runs of two scheduling-layer calls on the winning layout:
/// one simulation by the annealer's engine (`SimEngine::simulate`, the
/// body of `fast_simulate`, with the per-program set-up built
/// beforehand) and one `critical_path` over the winner's simulated
/// trace. Returns their wall times.
pub fn probe_schedule(built: &Built, machine: &MachineDescription) -> (Duration, Duration) {
    let plan = &built.plan;
    let sim_opts = DsaOptions::default().sim;
    let program = SimProgram::new(
        &built.compiler.program.spec,
        &plan.graph,
        &built.profile,
        machine,
        &sim_opts,
    );
    let mut engine = SimEngine::new(&program);
    let t0 = Instant::now();
    let (sim, _) = engine.simulate(&plan.layout, sim_opts.collect_trace);
    let t1 = Instant::now();
    std::hint::black_box(sim.makespan);
    let t2 = Instant::now();
    if let Some(trace) = &plan.estimate.trace {
        std::hint::black_box(critical_path(trace).len());
    }
    (t1 - t0, t2.elapsed())
}

/// splitmix64 over `(seed, stream, index)`: independent seeds for the
/// annealer and the arrival processes, all derived from the workload
/// seed.
pub fn derive_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
        .wrapping_add(index.wrapping_mul(0x94d0_49bb_1331_11eb))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
