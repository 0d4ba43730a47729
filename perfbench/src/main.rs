//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <theorem1|live_1m|serve_pipelined|serve_open> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed`.  An untraced run (`--trace 0`)
//! prints the end-to-end metrics; a traced run (`--trace 1`) records spans
//! at the boundaries the benchmark crosses, times each layer's public calls
//! in isolation on the workload's own state, and reconciles the layer costs
//! against the end-to-end cost per operation.  The last line of standard
//! output is one JSON object; the lines before it are the ledger.

mod layers;
mod live;
mod report;
mod serve;
mod stats;
mod sys;
mod theorem1;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use rls_rng::SplitMix64;

use crate::report::{Report, END_TO_END, PER_LAYER};
use crate::trace::Tracer;

pub const WORKLOADS: [&str; 4] = ["theorem1", "live_1m", "serve_pipelined", "serve_open"];

/// One run's inputs and budget.
#[derive(Debug, Clone)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Run {
    /// The seed of one named generator: every random input of a run is
    /// drawn from `derive(label)`, so `--seed` reaches all of them and two
    /// generators never share a stream.
    pub fn derive(&self, label: &str) -> u64 {
        derive(self.seed, label)
    }
}

pub fn derive(seed: u64, label: &str) -> u64 {
    // FNV-1a over the label, then splitmix over the combination.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    SplitMix64::mix(seed ^ SplitMix64::mix(h))
}

fn parse_args(raw: &[String]) -> Result<Run, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {WORKLOADS:?})"
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".to_string());
    }
    Ok(Run {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let run = match parse_args(&raw) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let cpu_start = sys::CpuTicks::now();
    let mut tracer = Tracer::new(Instant::now(), run.trace, 0);
    let outcome = match run.workload.as_str() {
        "theorem1" => theorem1::run(&run, &mut report, &mut tracer),
        "live_1m" => live::run(&run, &mut report, &mut tracer),
        "serve_pipelined" => serve::run_pipelined(&run, &mut report, &mut tracer),
        _ => serve::run_open(&run, &mut report, &mut tracer),
    };
    if let Err(e) = outcome {
        report.check(format!("workload ran to completion ({e})"), false);
    }
    report.set(
        "peak_rss_mib",
        sys::peak_rss_mib(),
        "VmHWM of the process running the workload",
    );

    let mut meta = vec![
        ("workload", run.workload.clone()),
        ("seed", run.seed.to_string()),
        ("seconds", run.seconds.to_string()),
        ("trace", u8::from(run.trace).to_string()),
    ];
    meta.extend(sys::metadata());
    meta.push(("cpu_time", sys::CpuTicks::now().since(&cpu_start)));
    if run.trace {
        let path = PathBuf::from(format!(
            "perfbench/out/spans-{}-{}.jsonl",
            run.workload, run.seed
        ));
        match tracer.write(&path) {
            Ok(()) => meta.push((
                "spans",
                format!(
                    "{} written to {} ({} dropped)",
                    tracer.spans().len(),
                    path.display(),
                    tracer.dropped()
                ),
            )),
            Err(e) => report.check(format!("spans written to {} ({e})", path.display()), false),
        }
    }
    let expected = if run.trace { PER_LAYER } else { END_TO_END };
    let (text, correct) = report.render(expected, &meta);
    print!("{text}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arguments_parse_and_reject() {
        let run = parse_args(&strings(&[
            "--workload",
            "live_1m",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(run.workload, "live_1m");
        assert_eq!(run.seed, 7);
        assert_eq!(run.seconds, 3.0);
        assert!(run.trace);
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--workload", "theorem1", "--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--seed", "1"])).is_err());
        assert!(parse_args(&strings(&["--workload"])).is_err());
    }

    #[test]
    fn derived_seeds_separate_labels_and_follow_the_seed() {
        assert_ne!(derive(1, "a"), derive(1, "b"));
        assert_ne!(derive(1, "a"), derive(2, "a"));
        assert_eq!(derive(5, "a"), derive(5, "a"));
    }

    /// The seed must reach every generator: each workload's inputs change
    /// with `--seed` and repeat for the same seed.
    #[test]
    fn seed_reaches_every_generator() {
        assert_ne!(theorem1::spec_text(1), theorem1::spec_text(2));
        assert_eq!(theorem1::spec_text(3), theorem1::spec_text(3));
        let a = live::initial_config(1, 1 << 10, 8 << 10).unwrap();
        let b = live::initial_config(2, 1 << 10, 8 << 10).unwrap();
        assert_ne!(a.loads(), b.loads());
        assert_eq!(
            a.loads(),
            live::initial_config(1, 1 << 10, 8 << 10).unwrap().loads()
        );
        let core_a = serve::default_core(1);
        let core_b = serve::default_core(2);
        assert_ne!(core_a.identity().seed, core_b.identity().seed);
        let plan_a = serve::open_plan(1, 0.2);
        let plan_b = serve::open_plan(2, 0.2);
        assert_ne!(plan_a, plan_b);
        assert_eq!(plan_a, serve::open_plan(1, 0.2));
    }
}
