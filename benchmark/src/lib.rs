//! End-to-end benchmark of Bamboo layout synthesis and resident
//! serving. See `README.md` in this directory for the workloads, the
//! metrics and how to run it.

pub mod host;
pub mod pipeline;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod synth;
pub mod workload;

use workload::Outcome;

/// Runs `workload` for `seconds` with inputs derived from `seed`;
/// `traced` adds the traced pass and the per-layer metrics. `None` for
/// an unknown workload name.
pub fn run(workload: &str, seed: u64, seconds: f64, traced: bool) -> Option<Outcome> {
    match workload {
        "synth-tile62" => Some(synth::run(seed, seconds, traced)),
        "serve-kmeans" => Some(serve::run("serve-kmeans", "kmeans", seed, seconds, traced)),
        "serve-fractal" => Some(serve::run(
            "serve-fractal",
            "fractal",
            seed,
            seconds,
            traced,
        )),
        _ => None,
    }
}
