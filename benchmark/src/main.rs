//! `bamboo-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints the pinned factors and every metric by
//! name with its unit, and ends with one JSON result line. `--trace 1`
//! adds a traced pass, reports the per-layer metrics instead of the
//! end-to-end ones, and writes the benchmark-side spans to
//! `.bench_spans/<workload>-seed<n>.jsonl`.

use bamboo_benchmark::workload::{Outcome, END_TO_END, WORKLOADS};
use bamboo_benchmark::{host, pipeline, serve, synth};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Grace beyond `--seconds` before the watchdog gives up on a run.
const GRACE: Duration = Duration::from_secs(100);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("between 0 and 3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.unwrap_or(false),
    })
}

fn print_report(args: &Args, outcome: &Outcome) {
    println!(
        "# workload={} seed={} seconds={} trace={}",
        outcome.workload,
        outcome.seed,
        args.seconds,
        u8::from(args.traced)
    );
    println!(
        "# host: nproc={} synth_threads={} synth_machine=tilepro64(62 worker cores) \
         serve_cores={} serve_rate={} req/s serve_batch={}/{}us",
        host::nproc(),
        pipeline::SYNTH_THREADS,
        serve::CORES,
        serve::RATE_RPS,
        serve::MAX_BATCH,
        serve::BATCH_WINDOW.as_micros()
    );
    println!(
        "# scales: synth-tile62=Original (+ keyword-count, {} sections), serve-*=Small",
        synth::KEYWORD_SECTIONS
    );
    for fact in &outcome.facts {
        println!("# {fact}");
    }
    for name in END_TO_END {
        match (name, outcome.end_to_end(name)) {
            ("failed_frac", _) => println!(
                "{name} {} ratio ({} of {} operations)",
                outcome.failed_frac(),
                outcome.failed,
                outcome.attempted
            ),
            (_, Some(m)) => println!("{name} {} {}", m.value, m.unit),
            (_, None) => println!("{name} n/a"),
        }
    }
    for m in &outcome.per_layer {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("bamboo-benchmark: {msg}");
            eprintln!(
                "usage: bamboo-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // A request that never completes would block a drain forever; the
    // watchdog turns that into a failed run instead of a hang. It is
    // never joined: a run that finishes exits under it.
    let deadline = Duration::from_secs_f64(args.seconds) + GRACE;
    std::thread::spawn(move || {
        std::thread::sleep(deadline);
        eprintln!("bamboo-benchmark: no result after {deadline:?}; giving up");
        std::process::exit(3);
    });
    let outcome = bamboo_benchmark::run(&args.workload, args.seed, args.seconds, args.traced)
        .expect("workload name was validated");
    print_report(&args, &outcome);
    if let Some(spans) = &outcome.spans {
        let path = PathBuf::from(".bench_spans")
            .join(format!("{}-seed{}.jsonl", outcome.workload, outcome.seed));
        if let Err(e) = spans.write_to(&path) {
            eprintln!("bamboo-benchmark: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("# spans: {} written to {}", spans.len(), path.display());
    }
    println!("{}", outcome.json_line(args.traced));
    ExitCode::SUCCESS
}
