//! `live_1m`: the online engine running the paper's process (RLS on the
//! complete graph) at n = 2^20 bins and m = 8n balls, Poisson arrivals with
//! balanced service, free-running `run_until` to a fixed horizon in fixed
//! slices.  The Fenwick index (8 MiB) exceeds a 4 MiB L2, so the descent
//! and the engine's stepping dominate; no HTTP and no telemetry.

use std::time::Instant;

use rls_core::{Config, RlsRule};
use rls_live::{LiveEngine, LiveParams};
use rls_rng::rng_from_seed;
use rls_workloads::{ArrivalProcess, Workload};

use crate::layers;
use crate::report::{describe, Report};
use crate::stats::{beyond, quantile, Summary};
use crate::trace::Tracer;
use crate::Run;

pub const N: usize = 1 << 20;
pub const M: u64 = 8 << 20;
/// Engine time per `run_until` slice (about 2.5k events at this size).
const SLICE: f64 = 1.0 / 4096.0;
/// Slices per pass: the fixed horizon is `SLICES * SLICE` (about 650k
/// events), short enough that a run holds tens of passes.
const SLICES: usize = 256;

/// The initial placement: every ball in a uniformly random bin.
pub fn initial_config(seed: u64, n: usize, m: u64) -> Result<Config, String> {
    Workload::UniformRandom
        .generate(n, m, &mut rng_from_seed(seed))
        .map_err(|e| e.to_string())
}

fn build(run: &Run) -> Result<LiveEngine, String> {
    let arrivals = ArrivalProcess::Poisson { rate_per_bin: 1.0 };
    let params = LiveParams::balanced(arrivals, N, M).map_err(|e| e.to_string())?;
    let initial = initial_config(run.derive("live.initial"), N, M)?;
    LiveEngine::new(initial, params, RlsRule::paper()).map_err(|e| e.to_string())
}

/// A digest of the final state: loads, counters and the clock's bits.
fn digest(engine: &LiveEngine) -> u64 {
    let c = engine.counters();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let words = engine.config().loads().iter().copied().chain([
        c.arrivals,
        c.departures,
        c.rings,
        c.migrations,
        c.events,
        engine.time().to_bits(),
    ]);
    for w in words {
        h = (h ^ w).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

struct Pass {
    wall_s: f64,
    events: u64,
    slices_us: Vec<f64>,
    digest: u64,
    /// Kept for the first pass only (the others would grow the peak RSS
    /// with the number of passes).
    engine: Option<LiveEngine>,
}

/// One pass from the booted state to the horizon on the run's stream.
fn pass(booted: &LiveEngine, seed: u64, tracer: &mut Tracer) -> Pass {
    let mut engine = booted.clone();
    let mut rng = rng_from_seed(seed);
    let mut slices_us = Vec::with_capacity(SLICES);
    let mut events = 0;
    let pass_id = tracer.id();
    let pass_start = tracer.now_ns();
    let t = Instant::now();
    for k in 1..=SLICES {
        let id = tracer.id();
        let start = tracer.now_ns();
        let s = Instant::now();
        events += engine.run_until(k as f64 * SLICE, &mut rng, &mut ());
        slices_us.push(s.elapsed().as_secs_f64() * 1e6);
        tracer.record(id, pass_id, "live.run_until", start, tracer.now_ns());
    }
    let wall_s = t.elapsed().as_secs_f64();
    tracer.record(pass_id, 0, "live.pass", pass_start, tracer.now_ns());
    Pass {
        wall_s,
        events,
        slices_us,
        digest: digest(&engine),
        engine: Some(engine),
    }
}

pub fn run(run: &Run, report: &mut Report, tracer: &mut Tracer) -> Result<(), String> {
    let mut builds = Vec::new();
    let mut booted = None;
    for _ in 0..3 {
        let t = Instant::now();
        let engine = build(run)?;
        builds.push(t.elapsed().as_secs_f64());
        booted = Some(engine);
    }
    let booted = booted.expect("built");
    report.info(format!(
        "n={N} m={M}, horizon {} in {SLICES} slices, Poisson arrivals, balanced service",
        SLICES as f64 * SLICE
    ));

    let seed = run.derive("live.run");
    let started = Instant::now();
    let mut quiet = Tracer::new(Instant::now(), false, 0);
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let mut p = pass(&booted, seed, &mut quiet);
        if !passes.is_empty() {
            p.engine = None;
        }
        passes.push(p);
        let last = passes.last().map_or(0.0, |p| p.wall_s);
        let enough = passes.len() >= 2;
        let budget = if run.trace { 0.0 } else { run.seconds };
        if enough && started.elapsed().as_secs_f64() + last > budget {
            break;
        }
    }
    let first = passes[0].digest;
    report.check(
        format!("final-state digest {first:016x} repeats on every pass"),
        passes.iter().all(|p| p.digest == first),
    );
    let engine = passes[0]
        .engine
        .take()
        .expect("first pass keeps its engine");
    let c = engine.counters();
    report.check(
        "index().matches(config()) after the run",
        engine.index().matches(engine.config()),
    );
    report.check(
        "counters sum to events (arrivals + departures + rings = events = run_until's count)",
        c.arrivals + c.departures + c.rings + c.joins + c.drains == c.events
            && c.events == passes[0].events,
    );
    for p in &passes {
        report.attempted += p.events;
    }
    report.info(format!(
        "events per pass {} (arrivals {}, departures {}, rings {}, migrations {})",
        c.events, c.arrivals, c.departures, c.rings, c.migrations
    ));

    let rates: Vec<f64> = passes.iter().map(|p| p.events as f64 / p.wall_s).collect();
    let rate = Summary::of(&rates);
    report.info(format!(
        "pass rates (M events/s, in order): {:?}",
        rates
            .iter()
            .map(|r| (r / 1e4).round() / 100.0)
            .collect::<Vec<_>>()
    ));
    if !run.trace {
        // Two more builds after the passes, so the set-up median spans the
        // run; the kept engines go first so the peak RSS stays that of one
        // booted engine plus one pass.
        drop((engine, booted));
        for _ in 0..2 {
            let t = Instant::now();
            std::hint::black_box(build(run)?);
            builds.push(t.elapsed().as_secs_f64());
        }
        let setup = Summary::of(&builds);
        let mut slices: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.slices_us.iter().copied())
            .collect();
        slices.sort_by(f64::total_cmp);
        let count = slices.len() as u64;
        report.set(
            "setup_s",
            setup.median,
            format!("initial placement + engine build; {}", describe(&setup)),
        );
        report.set(
            "ops_per_s",
            rate.median,
            format!("engine_events_per_s over passes; {}", describe(&rate)),
        );
        report.set(
            "latency_p50_us",
            quantile(&slices, 0.5),
            format!(
                "one run_until slice ({SLICE} engine time); p50 of {count} ({} beyond)",
                beyond(count, 0.5)
            ),
        );
        report.info(format!(
            "slice p90 = {:.3} us ({} beyond), p99 = {:.3} us ({} beyond) of {count}",
            quantile(&slices, 0.9),
            beyond(count, 0.9),
            quantile(&slices, 0.99),
            beyond(count, 0.99)
        ));
        return Ok(());
    }

    let untraced = &passes[0];
    let traced = pass(&booted, seed, tracer);
    report.check(
        "the traced pass ends in the same state",
        traced.digest == first,
    );
    report.set(
        "trace.overhead_ratio",
        traced.wall_s / untraced.wall_s,
        "traced pass wall / untraced pass wall",
    );
    layers::sim_layers(engine.config().clone(), false, 1 << 20, run, report)?;
    let leaf = layers::engine_layers(&engine, run, report)?;
    layers::reconcile(
        report,
        "event",
        untraced.wall_s * 1e9 / untraced.events as f64,
        leaf,
    );
    layers::serve_side_layers(run, report, tracer)?;
    crate::theorem1::small_campaign_layers(run, report, tracer)?;
    Ok(())
}
