//! E21/E25 — serving throughput: requests/sec of the HTTP layer end to
//! end.
//!
//! Each iteration boots nothing: one server (n bins at target load, the
//! balanced auto-rebalance policy) lives for the whole group, and every
//! iteration pushes a fixed number of requests (half arrivals, half
//! departures) through real loopback sockets with the built-in
//! closed-loop generator.  Wall time per iteration over the fixed request
//! count is therefore the serving throughput, with all of HTTP parsing,
//! the engine command path and the RLS rebalance work on the measured
//! path.
//!
//! Two effects are visible:
//! * pipeline depth 1 prices the full per-request round trip (client
//!   syscalls, loop wake-up, engine apply) — latency-bound on loopback;
//! * pipeline depth 16 amortizes those hops (the server answers a
//!   pipelined burst with one engine batch and one write), which is where
//!   the ≥100k requests/s regime lives even on a single core.
//!
//! Each depth records `mean_ms` and `median_ms` per iteration, plus
//! `requests_per_sec` at the median.

use std::time::{Duration, Instant};

use criterion::{append_custom_record, criterion_group, criterion_main, Criterion};
use rls_core::{Config, RlsRule};
use rls_live::{LiveEngine, LiveParams};
use rls_obs::Registry;
use rls_serve::{drive, serve, BenchOptions, DriveMode, ServeCore, ServePolicy, ServerConfig};
use rls_workloads::ArrivalProcess;

const N: usize = 64;
const PER_BIN: u64 = 8;
const CONNECTIONS: usize = 8;
const SAMPLES: usize = 10;

/// `RLS_BENCH_QUICK=1` trims the request count so the CI smoke job runs
/// in seconds while exercising the identical serving path.
fn requests_per_iter() -> u64 {
    if criterion::quick_mode() {
        2_000
    } else {
        10_000
    }
}

fn boot(registry: &Registry) -> rls_serve::HttpServer {
    let m = N as u64 * PER_BIN;
    let initial = Config::uniform(N, PER_BIN).expect("bench instance is valid");
    let params = LiveParams::balanced(ArrivalProcess::Poisson { rate_per_bin: 1.0 }, N, m)
        .expect("bench parameters are valid");
    let engine = LiveEngine::new(initial, params, RlsRule::paper()).expect("valid engine");
    // The balanced default: rings at rate m vs arrivals at rate λ = n.
    let mut core = ServeCore::new(
        engine,
        0xE21,
        0.0,
        ServePolicy {
            rings_per_arrival: m as f64 / N as f64,
        },
    );
    // The telemetry tap rides along for free (write-only atomics off the
    // measured path): its counters feed the BENCH_serve.json records.
    core.attach_metrics(registry);
    serve(core, &ServerConfig::default()).expect("ephemeral server boots")
}

/// One timed drive of `requests` through the server at `addr`.
fn sample(addr: std::net::SocketAddr, pipeline: usize, requests: u64) -> Duration {
    // detlint: allow(D002) benchmark wall-clock, never fed to an engine
    let start = Instant::now();
    let report = drive(
        addr,
        &BenchOptions {
            connections: CONNECTIONS,
            duration: Duration::from_secs(60),
            max_requests: Some(requests),
            mode: DriveMode::Closed,
            pipeline,
            depart_fraction: 0.5,
            ..BenchOptions::default()
        },
    )
    .expect("generator runs");
    assert!(report.errors == 0, "transport errors: {}", report.errors);
    start.elapsed()
}

fn human_ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn serving_throughput(_c: &mut Criterion) {
    let requests = requests_per_iter();
    let registry = Registry::new();
    let server = boot(&registry);

    for pipeline in [1usize, 16] {
        // One untimed warm-up drive, then the timed samples.
        sample(server.addr(), pipeline, requests);
        let mut times: Vec<Duration> = (0..SAMPLES)
            .map(|_| sample(server.addr(), pipeline, requests))
            .collect();
        times.sort();
        let mean = times.iter().sum::<Duration>() / times.len() as u32;
        let median = times[times.len() / 2];
        let rps = requests as f64 / median.as_secs_f64();
        let name = format!(
            "serving_throughput/closed_loop_{CONNECTIONS}conns_pipeline{pipeline}_{requests}reqs"
        );
        println!(
            "{name:<66} median {:>9.2} ms, mean {:>9.2} ms ({} samples, {:.0} req/s)",
            human_ms(median),
            human_ms(mean),
            times.len(),
            rps,
        );
        append_custom_record(&format!("{name}/mean_ms"), human_ms(mean));
        append_custom_record(&format!("{name}/median_ms"), human_ms(median));
        append_custom_record(&format!("{name}/requests_per_sec"), rps);
    }
    server.shutdown();
}

criterion_group!(benches, serving_throughput);
criterion_main!(benches);
