//! What a workload run returns, and how it is printed.

use crate::spans::SpanLog;
use crate::stats::Metric;
use std::fmt::Write as _;

/// The workloads, by the names the command line takes.
pub const WORKLOADS: [&str; 3] = ["synth-tile62", "serve-kmeans", "serve-fractal"];

/// The end-to-end metrics, in print order. A workload prints `n/a` for
/// one it does not measure; `failed_frac` comes from the operation
/// counts.
pub const END_TO_END: [&str; 10] = [
    "setup_s",
    "synth_jobs_per_s",
    "synth_ms_p50",
    "synth_ms_p90",
    "layout_speedup_gmean",
    "serve_capacity_rps",
    "serve_p50_ms",
    "serve_p99_ms",
    "failed_frac",
    "peak_rss_mb",
];

/// The end-to-end metrics `BENCHMARK.json` gates. Every workload
/// measures them, and the untraced result line carries only them.
pub const GATED: [&str; 2] = ["setup_s", "layout_speedup_gmean"];

/// Layer metrics. Each workload fills the layers it drives; a layer it
/// does not drive reports zero work.
#[derive(Clone, Debug, Default)]
pub struct LayerStats {
    /// `App::compiler` (frontend + analyses), mean ms per call.
    pub build_ms: f64,
    /// `Compiler::profile_run`, mean ms per call.
    pub profile_ms: f64,
    /// Invocations of the profiling runs (exact).
    pub profile_invocations: u64,
    /// `Compiler::synthesize`, mean ms per call.
    pub synthesize_ms: f64,
    /// Annealer simulations (exact).
    pub simulations: u64,
    /// Annealer candidates evaluated (exact).
    pub candidates: u64,
    /// Annealer iterations (exact).
    pub iterations: u64,
    /// Cache hits ÷ candidates.
    pub cache_hit_ratio: f64,
    /// Survivors ÷ candidates.
    pub accept_ratio: f64,
    /// One full `SimEngine::simulate` of the winning layout, mean µs.
    pub us_per_sim: f64,
    /// simulations × us_per_sim ÷ synthesize time.
    pub sim_share: f64,
    /// One `critical_path` on the winner's trace, mean µs.
    pub critpath_us: f64,
    /// |predicted − virtual makespan| ÷ virtual, mean percent.
    pub estimate_err_pct: f64,
    /// `Server::start`, ms.
    pub server_start_ms: f64,
    /// How late the open-loop generator offered arrivals, p99 ms.
    pub late_ms_p99: f64,
    /// Arrivals shed at admission ÷ arrivals.
    pub shed_frac: f64,
    /// Executor invocations ÷ completed requests.
    pub invocations_per_req: f64,
    /// Lock retries ÷ (invocations + retries).
    pub lock_retry_ratio: f64,
    /// Work steals ÷ completed requests.
    pub steals_per_req: f64,
    /// Contended router stripes ÷ completed requests.
    pub router_contention_per_req: f64,
    /// Mean per-request span partition, µs: compute, lock wait, queue
    /// wait, routing, idle.
    pub span_us: [f64; 5],
    /// Each component's share of summed admit→complete latency.
    pub span_share: [f64; 5],
    /// Finished objects the servers' `ThreadedReport`s held at shutdown
    /// ÷ completed requests: what a resident server keeps per request.
    pub retained_objects_per_req: f64,
}

/// Names of the span-partition metrics, in `SpanBreakdown` order.
const SPAN_US: [&str; 5] = [
    "span.compute_us",
    "span.lock_wait_us",
    "span.queue_wait_us",
    "span.routing_us",
    "span.idle_us",
];
const SPAN_SHARE: [&str; 5] = [
    "span.compute_share",
    "span.lock_wait_share",
    "span.queue_wait_share",
    "span.routing_share",
    "span.idle_share",
];

impl LayerStats {
    /// Every per-layer metric, in `BENCHMARK.json` order, plus the
    /// traced-vs-untraced overhead.
    pub fn into_metrics(self, overhead_pct: f64) -> Vec<Metric> {
        let mut m = vec![
            Metric::new("compiler.build_ms", self.build_ms, "ms"),
            Metric::new("virtual_exec.profile_ms", self.profile_ms, "ms"),
            Metric::new(
                "virtual_exec.profile_invocations",
                self.profile_invocations as f64,
                "count",
            ),
            Metric::new("schedule.synthesize_ms", self.synthesize_ms, "ms"),
            Metric::new("schedule.dsa.simulations", self.simulations as f64, "count"),
            Metric::new("schedule.dsa.candidates", self.candidates as f64, "count"),
            Metric::new("schedule.dsa.iterations", self.iterations as f64, "count"),
            Metric::new(
                "schedule.dsa.cache_hit_ratio",
                self.cache_hit_ratio,
                "ratio",
            ),
            Metric::new("schedule.dsa.accept_ratio", self.accept_ratio, "ratio"),
            Metric::new("schedule.sim.us_per_sim", self.us_per_sim, "us"),
            Metric::new("schedule.sim.share", self.sim_share, "ratio"),
            Metric::new("schedule.critpath.us", self.critpath_us, "us"),
            Metric::new("schedule.estimate_err_pct", self.estimate_err_pct, "%"),
            Metric::new("serving.server.start_ms", self.server_start_ms, "ms"),
            Metric::new("serving.gen.late_ms_p99", self.late_ms_p99, "ms"),
            Metric::new("serving.admission.shed_frac", self.shed_frac, "ratio"),
            Metric::new(
                "threaded.invocations_per_req",
                self.invocations_per_req,
                "count",
            ),
            Metric::new("threaded.lock_retry_ratio", self.lock_retry_ratio, "ratio"),
            Metric::new("threaded.steals_per_req", self.steals_per_req, "count"),
            Metric::new(
                "threaded.router_contention_per_req",
                self.router_contention_per_req,
                "count",
            ),
        ];
        for (name, value) in SPAN_US.into_iter().zip(self.span_us) {
            m.push(Metric::new(name, value, "us"));
        }
        for (name, value) in SPAN_SHARE.into_iter().zip(self.span_share) {
            m.push(Metric::new(name, value, "ratio"));
        }
        m.push(Metric::new(
            "threaded.retained_objects_per_req",
            self.retained_objects_per_req,
            "count",
        ));
        m.push(Metric::new("trace.overhead_pct", overhead_pct, "%"));
        m
    }
}

/// One workload run's result.
#[derive(Debug)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Workload seed.
    pub seed: u64,
    /// Operations attempted (jobs, requests, deployment checks).
    pub attempted: u64,
    /// Operations that failed an oracle, were shed, errored or never
    /// completed.
    pub failed: u64,
    /// End-to-end metrics (untraced): the [`GATED`] ones and those of
    /// [`END_TO_END`] the workload measures.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Pinned factors, sample counts and other facts worth printing.
    pub facts: Vec<String>,
    /// Benchmark-side spans of a traced run.
    pub spans: Option<SpanLog>,
}

impl Outcome {
    /// An empty outcome for `workload`.
    pub fn new(workload: &'static str, seed: u64) -> Self {
        Outcome {
            workload,
            seed,
            attempted: 0,
            failed: 0,
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            facts: Vec::new(),
            spans: None,
        }
    }

    /// `failed ÷ attempted`.
    pub fn failed_frac(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }

    /// Whether every oracle passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The end-to-end metric called `name`, if the workload measures it.
    pub fn end_to_end(&self, name: &str) -> Option<&Metric> {
        self.end_to_end.iter().find(|m| m.name == name)
    }

    /// The result line: one JSON object with the metrics of this mode,
    /// the [`GATED`] end-to-end ones untraced and every per-layer one
    /// traced.
    pub fn json_line(&self, traced: bool) -> String {
        let metrics: Vec<&Metric> = if traced {
            self.per_layer.iter().collect()
        } else {
            GATED
                .iter()
                .filter_map(|&name| self.end_to_end(name))
                .collect()
        };
        let mut out = format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{"#,
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            // `write!` into a String cannot fail.
            let _ = write!(
                out,
                r#"{sep}"{}": {{"value": {value:?}, "unit": "{}"}}"#,
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}
