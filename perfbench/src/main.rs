//! `perfbench` — one benchmark for the area-query engine.
//!
//! ```text
//! perfbench run --workload paper|geofence --seed N --seconds S --trace 0|1
//!               --vaq PATH --work DIR [--rev REV]
//! ```
//!
//! `run` builds the workload's inputs from the seed, runs it in this
//! process and prints two JSON lines on stdout: the run's provenance,
//! then the result (`correct`, `attempted`, `failed`, `metrics`). With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones.
//!
//! Normally started through `run.py`, which builds this binary and the
//! `vaq` CLI first.

mod inputs;
mod layers;
mod oracle;
mod statics;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use util::{json_num, json_str, nproc, secs_since, steal_ticks, Metrics, Outcome};
use vaq_core::QuerySpec;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    vaq: PathBuf,
    work: PathBuf,
    rev: String,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        vaq: PathBuf::new(),
        work: PathBuf::new(),
        rev: String::from("unknown"),
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => a.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => a.trace = value()? == "1",
            "--vaq" => a.vaq = PathBuf::from(value()?),
            "--work" => a.work = PathBuf::from(value()?),
            "--rev" => a.rev = value()?,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err(String::from("--seconds must be positive"));
    }
    Ok(a)
}

/// Sharded `geofence` engines are built with this many shards.
const GEOFENCE_SHARDS: usize = 4;

fn run(a: &Args) -> Result<(), String> {
    let threads = nproc();
    let steal0 = steal_ticks();
    let wall = Instant::now();
    let mut out = Outcome::default();
    let mut m = Metrics::default();
    let (inp, cfg) = match a.workload.as_str() {
        "paper" => (
            inputs::paper(a.seed),
            statics::StaticConfig {
                name: "paper",
                spec: QuerySpec::new(),
                shards: 0,
                payload_bytes: 1024,
                setup_reps: 5,
                cli_method: "voronoi",
                loop_slice: 96,
                batch_slice: 64,
                batches_per_round: 1,
            },
        ),
        "geofence" => (
            inputs::geofence(a.seed),
            statics::StaticConfig {
                name: "geofence",
                spec: QuerySpec::auto(),
                shards: GEOFENCE_SHARDS,
                payload_bytes: 0,
                setup_reps: 3,
                cli_method: "auto",
                loop_slice: 512,
                batch_slice: 16,
                batches_per_round: 16,
            },
        ),
        other => return Err(format!("unknown workload {other:?} (paper or geofence)")),
    };
    let ops = if a.trace {
        statics::run_trace(&cfg, &inp, a.seconds, &a.vaq, &a.work, &mut out, &mut m)?
    } else {
        statics::run_e2e(&cfg, &inp, a.seconds, &a.vaq, &a.work, &mut out, &mut m)?
    };
    let steal = match (steal0, steal_ticks()) {
        (Some(s0), Some(s1)) => (s1 - s0).to_string(),
        _ => String::from("null"),
    };
    println!(
        "{{\"provenance\": {{\"git_rev\": {}, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \
         \"trace\": {}, \"available_parallelism\": {threads}, \
         \"threads\": {{\"client\": 1, \"batch\": {threads}}}, \"points\": {}, \
         \"areas\": {{\"loop\": {}, \"batch\": {}, \"trace\": {}}}, \"shards\": {}, \
         \"payload_bytes\": {}, \"weighted\": {}, \
         \"timed_ops\": {ops}, \"undecided_points\": {}, \"steal_ticks\": {steal}, \"wall_s\": {}}}}}",
        json_str(&a.rev),
        json_str(&a.workload),
        a.seed,
        json_num(a.seconds),
        a.trace,
        inp.points.len(),
        inp.loop_areas.len(),
        cfg.batch_slice,
        inp.trace_areas.len(),
        cfg.shards,
        cfg.payload_bytes,
        inp.weights.is_some(),
        out.undecided,
        json_num(secs_since(wall)),
    );
    for (name, v, unit) in &m.0 {
        eprintln!("{name:>36} {v:>14.6} {unit}");
    }
    let metrics: Vec<String> =
        m.0.iter()
            .map(|(name, v, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(*v),
                    json_str(unit)
                )
            })
            .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.violations.is_empty(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let result = match args.next().as_deref() {
        Some("run") => parse(args).and_then(|a| run(&a)),
        _ => Err(String::from(
            "usage: perfbench run --workload W --seed N --seconds S --trace 0|1 --vaq PATH --work DIR",
        )),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
